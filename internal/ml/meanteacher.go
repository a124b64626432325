package ml

import (
	"fmt"
	"math/rand"

	"accessquery/internal/mat"
)

// MeanTeacher implements the Tarvainen & Valpola consistency-regularization
// method adapted to regression: a student network trains on labeled MSE
// plus a consistency term that pulls its predictions on noise-perturbed
// unlabeled inputs toward those of an exponential-moving-average teacher.
type MeanTeacher struct {
	// Hidden lists hidden-layer widths; default {32, 16}.
	Hidden []int
	// Epochs of training; default 400.
	Epochs int
	// LearningRate for Adam; default 0.01.
	LearningRate float64
	// EMADecay is the teacher decay α; default 0.99.
	EMADecay float64
	// ConsistencyWeight scales the unlabeled consistency loss; default 0.5.
	ConsistencyWeight float64
	// NoiseSigma is the input perturbation; default 0.1 (features are
	// standardized upstream).
	NoiseSigma float64
	// WeightDecay is the L2 penalty on the student; default 1e-4.
	WeightDecay float64
	// Seed drives initialization and noise.
	Seed int64

	teacher *network
	info    TrainInfo
}

// NewMeanTeacher returns a Mean Teacher model with the experiment defaults.
func NewMeanTeacher(seed int64) *MeanTeacher {
	return &MeanTeacher{
		Hidden: []int{32, 16}, Epochs: 400, LearningRate: 0.01,
		EMADecay: 0.99, ConsistencyWeight: 0.5, NoiseSigma: 0.1,
		WeightDecay: 1e-4, Seed: seed,
	}
}

// Name implements Model.
func (m *MeanTeacher) Name() string { return "MT" }

// Fit implements Model, using xu for the consistency term. When xu is nil
// or empty the model degenerates to a plain MLP student.
func (m *MeanTeacher) Fit(x, y, xu *mat.Dense) error {
	d, k, err := validateFit(x, y)
	if err != nil {
		return err
	}
	hidden := m.Hidden
	if len(hidden) == 0 {
		hidden = []int{32, 16}
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 400
	}
	lr := m.LearningRate
	if lr <= 0 {
		lr = 0.01
	}
	decay := m.EMADecay
	if decay <= 0 || decay >= 1 {
		decay = 0.99
	}
	cw := m.ConsistencyWeight
	if cw < 0 {
		cw = 0.5
	}
	sigma := m.NoiseSigma
	if sigma <= 0 {
		sigma = 0.1
	}
	sizes := append(append([]int{d}, hidden...), k)
	rng := rand.New(rand.NewSource(m.Seed))
	student := newNetwork(sizes, rng)
	teacher := student.clone()
	opt := newAdam(student, lr)
	ws := newWorkspace(x.Rows(), sizes)
	// The consistency pass reuses its own workspace, the teacher's target
	// and the noisy copy of xu every epoch.
	var wsU *workspace
	var target, noisy *mat.Dense
	useU := xu != nil && xu.Rows() > 0 && cw > 0
	if useU {
		wsU = newWorkspace(xu.Rows(), sizes)
		target = mat.New(xu.Rows(), k)
		noisy = mat.New(xu.Rows(), d)
	}
	var firstLoss, lastLoss float64
	for e := 0; e < epochs; e++ {
		// Supervised pass.
		if err := student.forward(ws, x); err != nil {
			return fmt.Errorf("ml/mt: %w", err)
		}
		loss, err := mseDelta(ws, y)
		if err != nil {
			return fmt.Errorf("ml/mt: %w", err)
		}
		if e == 0 {
			firstLoss = loss
		}
		lastLoss = loss
		if err := student.backward(ws); err != nil {
			return fmt.Errorf("ml/mt: %w", err)
		}
		opt.update(student, &ws.g, m.WeightDecay)

		if useU {
			// Consistency pass: student on noisy inputs chases the teacher
			// on clean inputs.
			if err := teacher.forward(wsU, xu); err != nil {
				return fmt.Errorf("ml/mt: teacher: %w", err)
			}
			for i := 0; i < target.Rows(); i++ {
				copy(target.Row(i), wsU.out().Row(i))
			}
			addNoiseInto(noisy, xu, rng, sigma)
			if err := student.forward(wsU, noisy); err != nil {
				return fmt.Errorf("ml/mt: %w", err)
			}
			if _, err := mseDelta(wsU, target); err != nil {
				return fmt.Errorf("ml/mt: %w", err)
			}
			wsU.outDelta().Scale(cw)
			if err := student.backward(wsU); err != nil {
				return fmt.Errorf("ml/mt: %w", err)
			}
			opt.step(student, &wsU.g)
		}
		emaUpdate(teacher, student, decay)
	}
	m.teacher = teacher
	m.info = TrainInfo{
		Iterations:  epochs,
		Converged:   lossConverged(firstLoss, lastLoss),
		InitialLoss: firstLoss,
		FinalLoss:   lastLoss,
	}
	return nil
}

// TrainInfo implements Diagnoser; the loss trajectory tracks the
// student's supervised term.
func (m *MeanTeacher) TrainInfo() TrainInfo { return m.info }

// Predict implements Model using the teacher network (the better-averaged
// model, as in the original paper).
func (m *MeanTeacher) Predict(x *mat.Dense) (*mat.Dense, error) {
	if m.teacher == nil {
		return nil, fmt.Errorf("ml/mt: model not fitted")
	}
	if x.Cols() != m.teacher.sizes[0] {
		return nil, fmt.Errorf("ml/mt: %d features, model trained on %d", x.Cols(), m.teacher.sizes[0])
	}
	return m.teacher.predict(x)
}
