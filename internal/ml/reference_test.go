package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"accessquery/internal/geo"
	"accessquery/internal/mat"
)

// This file keeps the allocating training code the workspace replaced, as
// the reference the workspace must match bit for bit: the same weights,
// biases, diagnostics and predictions for every model that trains a
// network. The bodies are the replaced code with only names changed.

// refMul is the replaced mat.Mul: a zeroed output accumulated in i, k, j
// order, skipping zero left factors.
func refMul(a, b *mat.Dense) (*mat.Dense, error) {
	if a.Cols() != b.Rows() {
		return nil, fmt.Errorf("mat: cannot multiply %dx%d by %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	out := mat.New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

func refForward(n *network, x *mat.Dense) (zs, as []*mat.Dense, err error) {
	a := x
	as = append(as, a)
	last := len(n.w) - 1
	for l := range n.w {
		z, err := refMul(a, n.w[l])
		if err != nil {
			return nil, nil, fmt.Errorf("ml: layer %d: %w", l, err)
		}
		if err := z.AddRowVector(n.b[l]); err != nil {
			return nil, nil, err
		}
		zs = append(zs, z)
		if l < last {
			a = z.Clone().Apply(relu)
		} else {
			a = z // linear output
		}
		as = append(as, a)
	}
	return zs, as, nil
}

func refPredict(n *network, x *mat.Dense) (*mat.Dense, error) {
	_, as, err := refForward(n, x)
	if err != nil {
		return nil, err
	}
	return as[len(as)-1], nil
}

func refBackward(n *network, zs, as []*mat.Dense, delta0 *mat.Dense) (*grads, error) {
	g := &grads{
		w: make([]*mat.Dense, len(n.w)),
		b: make([][]float64, len(n.w)),
	}
	delta := delta0
	for l := len(n.w) - 1; l >= 0; l-- {
		// dW = aₗᵀ · delta ; db = column sums of delta.
		dw, err := refMul(as[l].Transpose(), delta)
		if err != nil {
			return nil, err
		}
		g.w[l] = dw
		db := make([]float64, delta.Cols())
		for i := 0; i < delta.Rows(); i++ {
			row := delta.Row(i)
			for j, v := range row {
				db[j] += v
			}
		}
		g.b[l] = db
		if l == 0 {
			break
		}
		// Propagate: deltaPrev = (delta · Wᵀ) ⊙ relu'(z_{l-1}).
		dPrev, err := refMul(delta, n.w[l].Transpose())
		if err != nil {
			return nil, err
		}
		z := zs[l-1]
		for i := 0; i < dPrev.Rows(); i++ {
			drow := dPrev.Row(i)
			zrow := z.Row(i)
			for j := range drow {
				if zrow[j] <= 0 {
					drow[j] = 0
				}
			}
		}
		delta = dPrev
	}
	return g, nil
}

func refMseDelta(pred, target *mat.Dense) (*mat.Dense, float64, error) {
	d, err := mat.Sub(pred, target)
	if err != nil {
		return nil, 0, err
	}
	var loss float64
	for i := 0; i < d.Rows(); i++ {
		for _, v := range d.Row(i) {
			loss += v * v
		}
	}
	nTot := float64(d.Rows() * d.Cols())
	if nTot > 0 {
		loss /= nTot
		d.Scale(2 / nTot)
	}
	return d, loss, nil
}

func refAddNoise(x *mat.Dense, rng *rand.Rand, sigma float64) *mat.Dense {
	out := x.Clone()
	for i := 0; i < out.Rows(); i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += rng.NormFloat64() * sigma
		}
	}
	return out
}

// refFitMLP is the replaced MLP.Fit; it returns the fitted network.
func refFitMLP(m *MLP, x, y *mat.Dense) (*network, TrainInfo, error) {
	d, k, err := validateFit(x, y)
	if err != nil {
		return nil, TrainInfo{}, err
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
	var firstLoss, lastLoss float64
	for e := 0; e < epochs; e++ {
		zs, as, err := refForward(net, x)
		if err != nil {
			return nil, TrainInfo{}, fmt.Errorf("ml/mlp: %w", err)
		}
		delta, loss, err := refMseDelta(as[len(as)-1], y)
		if err != nil {
			return nil, TrainInfo{}, fmt.Errorf("ml/mlp: %w", err)
		}
		if e == 0 {
			firstLoss = loss
		}
		lastLoss = loss
		g, err := refBackward(net, zs, as, delta)
		if err != nil {
			return nil, TrainInfo{}, fmt.Errorf("ml/mlp: %w", err)
		}
		applyWeightDecay(net, g, m.WeightDecay)
		opt.step(net, g)
	}
	return net, TrainInfo{
		Iterations:  epochs,
		Converged:   lossConverged(firstLoss, lastLoss),
		InitialLoss: firstLoss,
		FinalLoss:   lastLoss,
	}, nil
}

// refFitMT is the replaced MeanTeacher.Fit; it returns the teacher.
func refFitMT(m *MeanTeacher, x, y, xu *mat.Dense) (*network, TrainInfo, error) {
	d, k, err := validateFit(x, y)
	if err != nil {
		return nil, TrainInfo{}, err
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
	hasU := xu != nil && xu.Rows() > 0
	var firstLoss, lastLoss float64
	for e := 0; e < epochs; e++ {
		// Supervised pass.
		zs, as, err := refForward(student, x)
		if err != nil {
			return nil, TrainInfo{}, fmt.Errorf("ml/mt: %w", err)
		}
		delta, loss, err := refMseDelta(as[len(as)-1], y)
		if err != nil {
			return nil, TrainInfo{}, fmt.Errorf("ml/mt: %w", err)
		}
		if e == 0 {
			firstLoss = loss
		}
		lastLoss = loss
		g, err := refBackward(student, zs, as, delta)
		if err != nil {
			return nil, TrainInfo{}, fmt.Errorf("ml/mt: %w", err)
		}
		applyWeightDecay(student, g, m.WeightDecay)
		opt.step(student, g)

		if hasU && cw > 0 {
			// Consistency pass: student on noisy inputs chases the teacher
			// on clean inputs.
			target, err := refPredict(teacher, xu)
			if err != nil {
				return nil, TrainInfo{}, fmt.Errorf("ml/mt: teacher: %w", err)
			}
			noisy := refAddNoise(xu, rng, sigma)
			zsU, asU, err := refForward(student, noisy)
			if err != nil {
				return nil, TrainInfo{}, fmt.Errorf("ml/mt: %w", err)
			}
			deltaU, _, err := refMseDelta(asU[len(asU)-1], target)
			if err != nil {
				return nil, TrainInfo{}, fmt.Errorf("ml/mt: %w", err)
			}
			deltaU.Scale(cw)
			gU, err := refBackward(student, zsU, asU, deltaU)
			if err != nil {
				return nil, TrainInfo{}, fmt.Errorf("ml/mt: %w", err)
			}
			opt.step(student, gU)
		}
		emaUpdate(teacher, student, decay)
	}
	return teacher, TrainInfo{
		Iterations:  epochs,
		Converged:   lossConverged(firstLoss, lastLoss),
		InitialLoss: firstLoss,
		FinalLoss:   lastLoss,
	}, nil
}

func refAdjMul(a *SparseAdj, x *mat.Dense) (*mat.Dense, error) {
	if x.Rows() != a.n {
		return nil, fmt.Errorf("ml/gnn: adjacency is %d nodes, features have %d rows", a.n, x.Rows())
	}
	out := mat.New(a.n, x.Cols())
	for i := 0; i < a.n; i++ {
		orow := out.Row(i)
		for k, j := range a.cols[i] {
			w := a.vals[i][k]
			xrow := x.Row(int(j))
			for c, v := range xrow {
				orow[c] += w * v
			}
		}
	}
	return out, nil
}

func refColSums(m *mat.Dense) []float64 {
	out := make([]float64, m.Cols())
	for i := 0; i < m.Rows(); i++ {
		for j, v := range m.Row(i) {
			out[j] += v
		}
	}
	return out
}

func refForwardAll(g *GNN, p *mat.Dense) (*mat.Dense, error) {
	z1, err := refMul(p, g.w1)
	if err != nil {
		return nil, err
	}
	if err := z1.AddRowVector(g.b1); err != nil {
		return nil, err
	}
	h1 := z1.Apply(relu)
	q, err := refAdjMul(g.adj, h1)
	if err != nil {
		return nil, err
	}
	z2, err := refMul(q, g.w2)
	if err != nil {
		return nil, err
	}
	if err := z2.AddRowVector(g.b2); err != nil {
		return nil, err
	}
	return z2, nil
}

// refFitGNN is the replaced GNN.Fit; it fills g's fitted fields.
func refFitGNN(g *GNN, x, y, xu *mat.Dense) error {
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
	p, err := refAdjMul(g.adj, feats)
	if err != nil {
		return err
	}
	opt := newAdam(&network{
		sizes: []int{d, hidden, k},
		w:     []*mat.Dense{g.w1, g.w2},
		b:     [][]float64{g.b1, g.b2},
	}, lr)
	net := &network{sizes: []int{d, hidden, k}, w: []*mat.Dense{g.w1, g.w2}, b: [][]float64{g.b1, g.b2}}

	var firstLoss, lastLoss float64
	for e := 0; e < epochs; e++ {
		z1, err := refMul(p, g.w1)
		if err != nil {
			return err
		}
		if err := z1.AddRowVector(g.b1); err != nil {
			return err
		}
		h1 := z1.Clone().Apply(relu)
		q, err := refAdjMul(g.adj, h1)
		if err != nil {
			return err
		}
		z2, err := refMul(q, g.w2)
		if err != nil {
			return err
		}
		if err := z2.AddRowVector(g.b2); err != nil {
			return err
		}
		// Loss gradient only on labeled rows; the same residuals give the
		// epoch's training MSE for the convergence diagnostics.
		dOut := mat.New(g.adj.N(), k)
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
		dW2, err := refMul(q.Transpose(), dOut)
		if err != nil {
			return err
		}
		db2 := refColSums(dOut)
		dQ, err := refMul(dOut, g.w2.Transpose())
		if err != nil {
			return err
		}
		dH1, err := refAdjMul(g.adj, dQ) // Â symmetric
		if err != nil {
			return err
		}
		for i := 0; i < dH1.Rows(); i++ {
			drow := dH1.Row(i)
			zrow := z1.Row(i)
			for j := range drow {
				if zrow[j] <= 0 {
					drow[j] = 0
				}
			}
		}
		dW1, err := refMul(p.Transpose(), dH1)
		if err != nil {
			return err
		}
		db1 := refColSums(dH1)
		opt.step(net, &grads{w: []*mat.Dense{dW1, dW2}, b: [][]float64{db1, db2}})
	}
	// Cache full-node predictions.
	out, err := refForwardAll(g, p)
	if err != nil {
		return err
	}
	g.cached = out
	g.info = TrainInfo{
		Iterations:  epochs,
		Converged:   lossConverged(firstLoss, lastLoss),
		InitialLoss: firstLoss,
		FinalLoss:   lastLoss,
	}
	return nil
}

func sameBits(t *testing.T, name string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d, want %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < want.Rows(); i++ {
		sameVecBits(t, fmt.Sprintf("%s row %d", name, i), got.Row(i), want.Row(i))
	}
}

func sameVecBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s[%d] = %v, want %v", name, j, got[j], want[j])
		}
	}
}

func sameNetwork(t *testing.T, name string, got, want *network) {
	t.Helper()
	if len(got.w) != len(want.w) {
		t.Fatalf("%s: %d layers, want %d", name, len(got.w), len(want.w))
	}
	for l := range want.w {
		sameBits(t, fmt.Sprintf("%s w[%d]", name, l), got.w[l], want.w[l])
		sameVecBits(t, fmt.Sprintf("%s b[%d]", name, l), got.b[l], want.b[l])
	}
}

func sameInfo(t *testing.T, name string, got, want TrainInfo) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged ||
		math.Float64bits(got.InitialLoss) != math.Float64bits(want.InitialLoss) ||
		math.Float64bits(got.FinalLoss) != math.Float64bits(want.FinalLoss) {
		t.Fatalf("%s: TrainInfo %+v, want %+v", name, got, want)
	}
}

// referenceGraph places n zones at random in a 6 km square and labels a
// random subset of rows of them.
func referenceGraph(t *testing.T, rng *rand.Rand, n, rows int) (adj *SparseAdj, labeled, unlabeled []int) {
	t.Helper()
	base := geo.Point{Lat: 52.4, Lon: -1.5}
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Offset(base, rng.Float64()*6000, rng.Float64()*6000)
	}
	adj, err := NewGaussianAdjacency(pts, 800, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(n)
	return adj, perm[:rows], perm[rows:]
}

func TestTrainingMatchesReferenceBitwise(t *testing.T) {
	type shape struct {
		rows, k int
		hidden  []int
		seed    int64
		epochs  int
	}
	// A short run over the shape grid, the seed cycling with the shape, and
	// the served shape (13 rows of 19 features, 2 targets) at the default
	// epoch counts.
	var shapes []shape
	seeds := []int64{1, 7, 42}
	for _, rows := range []int{1, 2, 13, 51, 253} {
		for _, hidden := range [][]int{{32, 16}, {8}} {
			for _, k := range []int{1, 2} {
				shapes = append(shapes, shape{rows, k, hidden, seeds[len(shapes)%len(seeds)], 15})
			}
		}
	}
	shapes = append(shapes, shape{13, 2, []int{32, 16}, 3, 0})
	const nu = 40 // unlabeled rows, for MT and the GNN graph
	for _, s := range shapes {
		s := s
		t.Run(fmt.Sprintf("rows=%d/hidden=%v/k=%d/seed=%d/epochs=%d", s.rows, s.hidden, s.k, s.seed, s.epochs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(s.seed))
			x, y := servedData(rng, s.rows, s.k)
			xu, _ := servedData(rng, nu, s.k)

			mlp := &MLP{Hidden: s.hidden, Epochs: s.epochs, LearningRate: 0.01, WeightDecay: 1e-4, Seed: s.seed}
			refNet, refInfo, err := refFitMLP(mlp, x, y)
			if err != nil {
				t.Fatal(err)
			}
			if err := mlp.Fit(x, y, nil); err != nil {
				t.Fatal(err)
			}
			sameNetwork(t, "MLP", mlp.net, refNet)
			sameInfo(t, "MLP", mlp.TrainInfo(), refInfo)
			refPred, err := refPredict(refNet, xu)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := mlp.Predict(xu)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "MLP predict", pred, refPred)

			for _, unl := range []*mat.Dense{xu, nil} {
				mt := NewMeanTeacher(s.seed)
				mt.Hidden, mt.Epochs = s.hidden, s.epochs
				name := fmt.Sprintf("MT xu=%v", unl != nil)
				refTeacher, refInfo, err := refFitMT(mt, x, y, unl)
				if err != nil {
					t.Fatal(err)
				}
				if err := mt.Fit(x, y, unl); err != nil {
					t.Fatal(err)
				}
				sameNetwork(t, name, mt.teacher, refTeacher)
				sameInfo(t, name, mt.TrainInfo(), refInfo)
				refPred, err := refPredict(refTeacher, xu)
				if err != nil {
					t.Fatal(err)
				}
				pred, err := mt.Predict(xu)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, name+" predict", pred, refPred)
			}

			adj, labeled, unlabeled := referenceGraph(t, rng, s.rows+nu, s.rows)
			ref, gnn := NewGNN(s.seed), NewGNN(s.seed)
			ref.Hidden, ref.Epochs = s.hidden[0], s.epochs
			gnn.Hidden, gnn.Epochs = s.hidden[0], s.epochs
			ref.SetGraph(adj, labeled, unlabeled)
			gnn.SetGraph(adj, labeled, unlabeled)
			if err := refFitGNN(ref, x, y, xu); err != nil {
				t.Fatal(err)
			}
			if err := gnn.Fit(x, y, xu); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "GNN w1", gnn.w1, ref.w1)
			sameBits(t, "GNN w2", gnn.w2, ref.w2)
			sameVecBits(t, "GNN b1", gnn.b1, ref.b1)
			sameVecBits(t, "GNN b2", gnn.b2, ref.b2)
			sameBits(t, "GNN cached", gnn.cached, ref.cached)
			sameInfo(t, "GNN", gnn.TrainInfo(), ref.TrainInfo())
			refPred, err = ref.Predict(xu)
			if err != nil {
				t.Fatal(err)
			}
			pred, err = gnn.Predict(xu)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "GNN predict", pred, refPred)
		})
	}
}
