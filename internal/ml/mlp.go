package ml

import (
	"fmt"
	"math/rand"

	"accessquery/internal/mat"
)

// MLP is a feed-forward network with ReLU hidden layers trained by
// full-batch Adam on mean squared error. It is the strongest performer in
// the paper's evaluation.
type MLP struct {
	// Hidden lists hidden-layer widths; default {32, 16}.
	Hidden []int
	// Epochs of full-batch training; default 400.
	Epochs int
	// LearningRate for Adam; default 0.01.
	LearningRate float64
	// WeightDecay is the L2 penalty added to weight gradients; default
	// 1e-4. It tames extrapolation when the labeled set is tiny.
	WeightDecay float64
	// Seed drives weight initialization.
	Seed int64

	net  *network
	info TrainInfo
}

// NewMLP returns an MLP with the experiment defaults.
func NewMLP(seed int64) *MLP {
	return &MLP{Hidden: []int{32, 16}, Epochs: 400, LearningRate: 0.01, WeightDecay: 1e-4, Seed: seed}
}

// Name implements Model.
func (m *MLP) Name() string { return "MLP" }

// Fit implements Model. Unlabeled data is ignored (the MLP is supervised;
// its semi-supervised siblings build on the same network core).
func (m *MLP) Fit(x, y, _ *mat.Dense) error {
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
	sizes := append(append([]int{d}, hidden...), k)
	rng := rand.New(rand.NewSource(m.Seed))
	net := newNetwork(sizes, rng)
	opt := newAdam(net, lr)
	ws := newWorkspace(x.Rows(), sizes)
	var firstLoss, lastLoss float64
	for e := 0; e < epochs; e++ {
		if err := net.forward(ws, x); err != nil {
			return fmt.Errorf("ml/mlp: %w", err)
		}
		loss, err := mseDelta(ws, y)
		if err != nil {
			return fmt.Errorf("ml/mlp: %w", err)
		}
		if e == 0 {
			firstLoss = loss
		}
		lastLoss = loss
		if err := net.backward(ws); err != nil {
			return fmt.Errorf("ml/mlp: %w", err)
		}
		opt.update(net, &ws.g, m.WeightDecay)
	}
	m.net = net
	m.info = TrainInfo{
		Iterations:  epochs,
		Converged:   lossConverged(firstLoss, lastLoss),
		InitialLoss: firstLoss,
		FinalLoss:   lastLoss,
	}
	return nil
}

// TrainInfo implements Diagnoser.
func (m *MLP) TrainInfo() TrainInfo { return m.info }

// Predict implements Model.
func (m *MLP) Predict(x *mat.Dense) (*mat.Dense, error) {
	if m.net == nil {
		return nil, fmt.Errorf("ml/mlp: model not fitted")
	}
	if x.Cols() != m.net.sizes[0] {
		return nil, fmt.Errorf("ml/mlp: %d features, model trained on %d", x.Cols(), m.net.sizes[0])
	}
	return m.net.predict(x)
}
