// Package ml implements the semi-supervised regression models evaluated in
// the paper: OLS regression, a multi-layer perceptron, COREG (co-training
// with two k-NN regressors), Mean Teacher (EMA-consistency training), and a
// graph neural network over the zone-adjacency graph. All models share the
// Model interface: they fit on labeled features/targets, may exploit
// unlabeled features, and predict multi-output targets (the pipeline trains
// on [MAC, ACSD] jointly).
//
// Everything is stdlib-only and deterministic given a seed.
package ml

import (
	"fmt"
	"math"
	"math/rand"

	"accessquery/internal/mat"
)

// TrainInfo summarizes how a model's most recent Fit went, the
// convergence diagnostics a per-query explain report surfaces.
type TrainInfo struct {
	// Iterations is the number of training iterations (epochs for the
	// network models, pseudo-labeling rounds for COREG) actually run;
	// 1 for closed-form solvers.
	Iterations int `json:"iterations"`
	// Converged reports whether training reached a stable fit: the final
	// training loss is finite and no worse than the initial one for
	// iterative models, the loop reached a fixed point for COREG, and
	// always true for closed-form solvers that produced a solution.
	Converged bool `json:"converged"`
	// InitialLoss and FinalLoss bracket the training-loss trajectory on
	// standardized targets (MSE). Zero for models without a loss curve.
	InitialLoss float64 `json:"initial_loss,omitempty"`
	FinalLoss   float64 `json:"final_loss,omitempty"`
}

// Diagnoser is implemented by models that report training diagnostics.
// Callers type-assert after Fit; models that don't implement it simply
// produce no convergence diagnostics.
type Diagnoser interface {
	TrainInfo() TrainInfo
}

// lossConverged is the shared convergence heuristic for loss-curve
// models: training must not have diverged.
func lossConverged(initial, final float64) bool {
	if math.IsNaN(final) || math.IsInf(final, 0) {
		return false
	}
	return final <= initial || initial == 0
}

// Model is a trainable multi-output regressor.
type Model interface {
	// Name identifies the model in experiment reports.
	Name() string
	// Fit trains on labeled rows (x: n x d, y: n x k). xu carries the
	// unlabeled rows' features; purely supervised models ignore it. xu may
	// be nil.
	Fit(x, y, xu *mat.Dense) error
	// Predict returns a len(rows) x k prediction matrix.
	Predict(x *mat.Dense) (*mat.Dense, error)
}

// validateFit checks the shared Fit preconditions and returns (d, k).
func validateFit(x, y *mat.Dense) (int, int, error) {
	if x == nil || y == nil {
		return 0, 0, fmt.Errorf("ml: nil training data")
	}
	if x.Rows() == 0 {
		return 0, 0, fmt.Errorf("ml: no training rows")
	}
	if x.Rows() != y.Rows() {
		return 0, 0, fmt.Errorf("ml: %d feature rows but %d target rows", x.Rows(), y.Rows())
	}
	if y.Cols() == 0 {
		return 0, 0, fmt.Errorf("ml: targets have no columns")
	}
	return x.Cols(), y.Cols(), nil
}

// withBias returns x with a prepended constant-1 column.
func withBias(x *mat.Dense) *mat.Dense {
	out := mat.New(x.Rows(), x.Cols()+1)
	for i := 0; i < x.Rows(); i++ {
		row := out.Row(i)
		row[0] = 1
		copy(row[1:], x.Row(i))
	}
	return out
}

// gaussianInit fills m with N(0, scale²) entries.
func gaussianInit(m *mat.Dense, rng *rand.Rand, scale float64) {
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64() * scale
		}
	}
}
