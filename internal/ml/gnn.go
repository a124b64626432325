package ml

import (
	"fmt"
	"math"
	"math/rand"

	"accessquery/internal/geo"
	"accessquery/internal/mat"
)

// SparseAdj is a symmetric, normalized sparse adjacency matrix in
// row-list form: the Â = D^(-1/2)(A+I)D^(-1/2) operator of a GCN.
type SparseAdj struct {
	n    int
	cols [][]int32
	vals [][]float64
}

// NewGaussianAdjacency builds the paper's zone adjacency: edge weights are
// Gaussian kernels of the Euclidean distance between zone centroids,
// exp(-d²/2σ²), thresholded to zero below the cutoff, with self-loops
// added and symmetric degree normalization applied.
func NewGaussianAdjacency(points []geo.Point, sigmaMeters, threshold float64) (*SparseAdj, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("ml/gnn: no points")
	}
	if sigmaMeters <= 0 {
		return nil, fmt.Errorf("ml/gnn: non-positive sigma %f", sigmaMeters)
	}
	adj := &SparseAdj{n: n, cols: make([][]int32, n), vals: make([][]float64, n)}
	// Raw weights including self-loops.
	deg := make([]float64, n)
	type edge struct {
		j int32
		w float64
	}
	rows := make([][]edge, n)
	for i := 0; i < n; i++ {
		rows[i] = append(rows[i], edge{j: int32(i), w: 1}) // self-loop
		deg[i]++
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := geo.DistanceMeters(points[i], points[j])
			w := math.Exp(-d * d / (2 * sigmaMeters * sigmaMeters))
			if w < threshold {
				continue
			}
			rows[i] = append(rows[i], edge{j: int32(j), w: w})
			rows[j] = append(rows[j], edge{j: int32(i), w: w})
			deg[i] += w
			deg[j] += w
		}
	}
	for i := 0; i < n; i++ {
		adj.cols[i] = make([]int32, len(rows[i]))
		adj.vals[i] = make([]float64, len(rows[i]))
		for k, e := range rows[i] {
			adj.cols[i][k] = e.j
			adj.vals[i][k] = e.w / math.Sqrt(deg[i]*deg[int(e.j)])
		}
	}
	return adj, nil
}

// N returns the node count.
func (a *SparseAdj) N() int { return a.n }

// Mul returns Â·x for a dense x with N rows.
func (a *SparseAdj) Mul(x *mat.Dense) (*mat.Dense, error) {
	out := mat.New(a.n, x.Cols())
	if err := a.MulInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulInto sets dst, an N x x.Cols() matrix other than x, to Â·x.
func (a *SparseAdj) MulInto(dst, x *mat.Dense) error {
	if x.Rows() != a.n {
		return fmt.Errorf("ml/gnn: adjacency is %d nodes, features have %d rows", a.n, x.Rows())
	}
	if dst.Rows() != a.n || dst.Cols() != x.Cols() {
		return fmt.Errorf("ml/gnn: Â·x is %dx%d, dst is %dx%d", a.n, x.Cols(), dst.Rows(), dst.Cols())
	}
	if dst == x {
		return fmt.Errorf("ml/gnn: dst is also the operand")
	}
	for i := 0; i < a.n; i++ {
		orow := dst.Row(i)
		for c := range orow {
			orow[c] = 0
		}
		for k, j := range a.cols[i] {
			w := a.vals[i][k]
			xrow := x.Row(int(j))
			for c, v := range xrow {
				orow[c] += w * v
			}
		}
	}
	return nil
}

// GNN is a two-layer graph convolutional network for transductive
// semi-supervised node regression over the zone graph. It requires
// SetGraph before Fit; Fit stacks labeled and unlabeled features into the
// node order given to SetGraph and minimizes MSE on the labeled rows.
// Predict runs the full-graph forward pass and returns the unlabeled rows,
// so the x passed to Predict must be the same unlabeled feature matrix
// given to Fit.
type GNN struct {
	// Hidden is the convolution width; default 32.
	Hidden int
	// Epochs of full-graph training; default 300.
	Epochs int
	// LearningRate for Adam; default 0.01.
	LearningRate float64
	// Seed drives initialization.
	Seed int64

	adj       *SparseAdj
	labeled   []int
	unlabeled []int

	w1, w2 *mat.Dense
	b1, b2 []float64
	cached *mat.Dense // full-node predictions after Fit
	info   TrainInfo
}

// NewGNN returns a GNN with the experiment defaults.
func NewGNN(seed int64) *GNN {
	return &GNN{Hidden: 32, Epochs: 300, LearningRate: 0.01, Seed: seed}
}

// Name implements Model.
func (g *GNN) Name() string { return "GNN" }

// SetGraph installs the zone adjacency and the node indices of the labeled
// and unlabeled rows that Fit will receive.
func (g *GNN) SetGraph(adj *SparseAdj, labeled, unlabeled []int) {
	g.adj = adj
	g.labeled = labeled
	g.unlabeled = unlabeled
}

// Fit implements Model.
func (g *GNN) Fit(x, y, xu *mat.Dense) error {
	d, k, err := validateFit(x, y)
	if err != nil {
		return err
	}
	if g.adj == nil {
		return fmt.Errorf("ml/gnn: SetGraph must be called before Fit")
	}
	if len(g.labeled) != x.Rows() {
		return fmt.Errorf("ml/gnn: %d labeled indices but %d labeled rows", len(g.labeled), x.Rows())
	}
	nu := 0
	if xu != nil {
		nu = xu.Rows()
	}
	if len(g.unlabeled) != nu {
		return fmt.Errorf("ml/gnn: %d unlabeled indices but %d unlabeled rows", len(g.unlabeled), nu)
	}
	if x.Rows()+nu != g.adj.N() {
		return fmt.Errorf("ml/gnn: %d rows stacked but graph has %d nodes", x.Rows()+nu, g.adj.N())
	}
	// Stack features into node order.
	feats := mat.New(g.adj.N(), d)
	for r, node := range g.labeled {
		copy(feats.Row(node), x.Row(r))
	}
	for r, node := range g.unlabeled {
		copy(feats.Row(node), xu.Row(r))
	}
	hidden := g.Hidden
	if hidden <= 0 {
		hidden = 32
	}
	epochs := g.Epochs
	if epochs <= 0 {
		epochs = 300
	}
	lr := g.LearningRate
	if lr <= 0 {
		lr = 0.01
	}
	rng := rand.New(rand.NewSource(g.Seed))
	g.w1 = mat.New(d, hidden)
	g.w2 = mat.New(hidden, k)
	gaussianInit(g.w1, rng, math.Sqrt(2/float64(d)))
	gaussianInit(g.w2, rng, math.Sqrt(2/float64(hidden)))
	g.b1 = make([]float64, hidden)
	g.b2 = make([]float64, k)

	// Â·X is constant across epochs.
	p, err := g.adj.Mul(feats)
	if err != nil {
		return err
	}
	net := &network{sizes: []int{d, hidden, k}, w: []*mat.Dense{g.w1, g.w2}, b: [][]float64{g.b1, g.b2}}
	opt := newAdam(net, lr)
	n := g.adj.N()
	z1, h1, q := mat.New(n, hidden), mat.New(n, hidden), mat.New(n, hidden)
	dQ, dH1 := mat.New(n, hidden), mat.New(n, hidden)
	// dOut's unlabeled rows stay zero: the loss is on labeled rows only.
	z2, dOut := mat.New(n, k), mat.New(n, k)
	gr := &grads{
		w: []*mat.Dense{mat.New(d, hidden), mat.New(hidden, k)},
		b: [][]float64{make([]float64, hidden), make([]float64, k)},
	}

	var firstLoss, lastLoss float64
	for e := 0; e < epochs; e++ {
		if err := g.forward(p, z1, h1, q, z2); err != nil {
			return err
		}
		// Loss gradient only on labeled rows; the same residuals give the
		// epoch's training MSE for the convergence diagnostics.
		scale := 2 / float64(len(g.labeled)*k)
		var loss float64
		for r, node := range g.labeled {
			drow := dOut.Row(node)
			zrow := z2.Row(node)
			yrow := y.Row(r)
			for j := 0; j < k; j++ {
				resid := zrow[j] - yrow[j]
				drow[j] = resid * scale
				loss += resid * resid
			}
		}
		loss /= float64(len(g.labeled) * k)
		if e == 0 {
			firstLoss = loss
		}
		lastLoss = loss
		// Backprop.
		if err := mat.MulTransAInto(gr.w[1], q, dOut); err != nil {
			return err
		}
		colSumsInto(gr.b[1], dOut)
		if err := mat.MulTransBInto(dQ, dOut, g.w2); err != nil {
			return err
		}
		if err := g.adj.MulInto(dH1, dQ); err != nil { // Â symmetric
			return err
		}
		reluMask(dH1, z1)
		if err := mat.MulTransAInto(gr.w[0], p, dH1); err != nil {
			return err
		}
		colSumsInto(gr.b[0], dH1)
		opt.step(net, gr)
	}
	// Cache full-node predictions.
	if err := g.forward(p, z1, h1, q, z2); err != nil {
		return err
	}
	g.cached = z2
	g.info = TrainInfo{
		Iterations:  epochs,
		Converged:   lossConverged(firstLoss, lastLoss),
		InitialLoss: firstLoss,
		FinalLoss:   lastLoss,
	}
	return nil
}

// TrainInfo implements Diagnoser.
func (g *GNN) TrainInfo() TrainInfo { return g.info }

// LabeledPredictions returns the cached post-Fit predictions for the
// labeled nodes, row-aligned with the labeled rows given to Fit. Predict
// is transductive (unlabeled rows only), so in-sample diagnostics need
// this separate accessor.
func (g *GNN) LabeledPredictions() (*mat.Dense, error) {
	if g.cached == nil {
		return nil, fmt.Errorf("ml/gnn: model not fitted")
	}
	out := mat.New(len(g.labeled), g.cached.Cols())
	for r, node := range g.labeled {
		copy(out.Row(r), g.cached.Row(node))
	}
	return out, nil
}

// forward runs both graph convolutions over p = Â·X into the given
// buffers, leaving every node's prediction in z2.
func (g *GNN) forward(p, z1, h1, q, z2 *mat.Dense) error {
	if err := mat.MulInto(z1, p, g.w1); err != nil {
		return err
	}
	if err := z1.AddRowVector(g.b1); err != nil {
		return err
	}
	reluInto(h1, z1)
	if err := g.adj.MulInto(q, h1); err != nil {
		return err
	}
	if err := mat.MulInto(z2, q, g.w2); err != nil {
		return err
	}
	return z2.AddRowVector(g.b2)
}

// Predict implements Model for the transductive setting: it returns the
// cached predictions for the unlabeled nodes. x must have one row per
// unlabeled node (it is not re-embedded; GCN inference is transductive).
func (g *GNN) Predict(x *mat.Dense) (*mat.Dense, error) {
	if g.cached == nil {
		return nil, fmt.Errorf("ml/gnn: model not fitted")
	}
	if x.Rows() != len(g.unlabeled) {
		return nil, fmt.Errorf("ml/gnn: transductive predict expects the %d unlabeled rows, got %d",
			len(g.unlabeled), x.Rows())
	}
	out := mat.New(len(g.unlabeled), g.cached.Cols())
	for r, node := range g.unlabeled {
		copy(out.Row(r), g.cached.Row(node))
	}
	return out, nil
}
