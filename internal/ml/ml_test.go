package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"accessquery/internal/geo"
	"accessquery/internal/mat"
)

// synthetic regression data: y0 = 3 + 2*x0 - x1, y1 = -1 + x0 + 0.5*x1,
// plus optional noise.
func syntheticData(rng *rand.Rand, n int, noise float64) (*mat.Dense, *mat.Dense) {
	x := mat.New(n, 2)
	y := mat.New(n, 2)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, 3+2*a-b+rng.NormFloat64()*noise)
		y.Set(i, 1, -1+a+0.5*b+rng.NormFloat64()*noise)
	}
	return x, y
}

func maeOf(pred, want *mat.Dense) float64 {
	var sum float64
	var n int
	for i := 0; i < pred.Rows(); i++ {
		for j := 0; j < pred.Cols(); j++ {
			sum += math.Abs(pred.At(i, j) - want.At(i, j))
			n++
		}
	}
	return sum / float64(n)
}

func TestOLSRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := syntheticData(rng, 200, 0)
	m := NewOLS()
	if err := m.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	xt, yt := syntheticData(rng, 50, 0)
	pred, err := m.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	if mae := maeOf(pred, yt); mae > 1e-6 {
		t.Errorf("OLS MAE on noiseless linear data = %v", mae)
	}
}

func TestOLSWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := syntheticData(rng, 500, 0.3)
	m := NewOLS()
	if err := m.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	xt, yt := syntheticData(rng, 100, 0)
	pred, err := m.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	if mae := maeOf(pred, yt); mae > 0.1 {
		t.Errorf("OLS MAE = %v, want < 0.1", mae)
	}
}

func TestOLSErrors(t *testing.T) {
	m := NewOLS()
	if _, err := m.Predict(mat.New(1, 2)); err == nil {
		t.Error("predict before fit should fail")
	}
	if err := m.Fit(nil, nil, nil); err == nil {
		t.Error("nil data should fail")
	}
	if err := m.Fit(mat.New(3, 2), mat.New(4, 1), nil); err == nil {
		t.Error("row mismatch should fail")
	}
	x, y := syntheticData(rand.New(rand.NewSource(3)), 20, 0)
	if err := m.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(mat.New(2, 5)); err == nil {
		t.Error("feature-width mismatch should fail")
	}
}

func TestMLPLearnsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 300
	x := mat.New(n, 2)
	y := mat.New(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, a*a+b) // nonlinear in a
	}
	m := NewMLP(7)
	m.Epochs = 800
	if err := m.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	// Evaluate on a grid.
	xt := mat.New(100, 2)
	yt := mat.New(100, 1)
	for i := 0; i < 100; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		xt.Set(i, 0, a)
		xt.Set(i, 1, b)
		yt.Set(i, 0, a*a+b)
	}
	pred, err := m.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	mlpMAE := maeOf(pred, yt)
	// Linear baseline cannot represent a²: MLP should beat it clearly.
	ols := NewOLS()
	if err := ols.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	olsPred, err := ols.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	olsMAE := maeOf(olsPred, yt)
	if mlpMAE > olsMAE {
		t.Errorf("MLP MAE %v should beat OLS MAE %v on nonlinear data", mlpMAE, olsMAE)
	}
	if mlpMAE > 0.15 {
		t.Errorf("MLP MAE = %v, want < 0.15", mlpMAE)
	}
}

func TestMLPDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := syntheticData(rng, 100, 0.1)
	xt, _ := syntheticData(rng, 10, 0)
	p1 := fitPredictMLP(t, x, y, xt, 42)
	p2 := fitPredictMLP(t, x, y, xt, 42)
	for i := 0; i < p1.Rows(); i++ {
		for j := 0; j < p1.Cols(); j++ {
			if p1.At(i, j) != p2.At(i, j) {
				t.Fatal("same seed should give identical predictions")
			}
		}
	}
}

func fitPredictMLP(t *testing.T, x, y, xt *mat.Dense, seed int64) *mat.Dense {
	t.Helper()
	m := NewMLP(seed)
	m.Epochs = 50
	if err := m.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	p, err := m.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMLPErrors(t *testing.T) {
	m := NewMLP(1)
	if _, err := m.Predict(mat.New(1, 2)); err == nil {
		t.Error("predict before fit should fail")
	}
	rng := rand.New(rand.NewSource(6))
	x, y := syntheticData(rng, 30, 0)
	m.Epochs = 10
	if err := m.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(mat.New(1, 7)); err == nil {
		t.Error("feature mismatch should fail")
	}
}

func TestMeanTeacherLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := syntheticData(rng, 60, 0.1)
	xu, _ := syntheticData(rng, 200, 0)
	m := NewMeanTeacher(11)
	m.Epochs = 300
	if err := m.Fit(x, y, xu); err != nil {
		t.Fatal(err)
	}
	xt, yt := syntheticData(rng, 50, 0)
	pred, err := m.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports MT is not competitive with MLP; require only that
	// it learns the broad mapping (target std is ~2.4).
	if mae := maeOf(pred, yt); mae > 0.9 {
		t.Errorf("MeanTeacher MAE = %v, want < 0.9", mae)
	}
}

func TestMeanTeacherWithoutUnlabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := syntheticData(rng, 80, 0.05)
	m := NewMeanTeacher(3)
	m.Epochs = 300
	if err := m.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if mae := maeOf(pred, y); mae > 0.6 {
		t.Errorf("MT without unlabeled MAE = %v", mae)
	}
}

func TestMeanTeacherUnlabeledWidthMismatch(t *testing.T) {
	x, y := syntheticData(rand.New(rand.NewSource(9)), 20, 0)
	for _, cols := range []int{1, 3} {
		m := NewMeanTeacher(1)
		m.Epochs = 5
		if err := m.Fit(x, y, mat.New(10, cols)); err == nil {
			t.Errorf("%d unlabeled features against 2 labeled should fail", cols)
		}
	}
}

func TestCOREGLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := syntheticData(rng, 60, 0.1)
	xu, _ := syntheticData(rng, 150, 0)
	m := NewCOREG(13)
	m.Iterations = 10
	m.PoolSize = 40
	if err := m.Fit(x, y, xu); err != nil {
		t.Fatal(err)
	}
	xt, yt := syntheticData(rng, 40, 0)
	pred, err := m.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	if mae := maeOf(pred, yt); mae > 1.2 {
		t.Errorf("COREG MAE = %v, want < 1.2", mae)
	}
}

func TestCOREGNoUnlabeledPool(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := syntheticData(rng, 50, 0.05)
	m := NewCOREG(1)
	if err := m.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	// k-NN on its own training points should be accurate.
	if mae := maeOf(pred, y); mae > 0.7 {
		t.Errorf("COREG supervised MAE = %v", mae)
	}
}

func TestCOREGErrors(t *testing.T) {
	m := NewCOREG(1)
	if _, err := m.Predict(mat.New(1, 2)); err == nil {
		t.Error("predict before fit should fail")
	}
	x, y := syntheticData(rand.New(rand.NewSource(11)), 20, 0)
	if err := m.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(mat.New(1, 9)); err == nil {
		t.Error("dim mismatch should fail")
	}
}

// gnnWorld builds a toy transductive task: 60 zones on a line, target = a
// smooth function of position, features = noisy position.
func gnnWorld(rng *rand.Rand) (pts []geo.Point, feats *mat.Dense, targets []float64) {
	base := geo.Point{Lat: 52.4, Lon: -1.9}
	n := 60
	pts = make([]geo.Point, n)
	feats = mat.New(n, 2)
	targets = make([]float64, n)
	for i := 0; i < n; i++ {
		d := float64(i) * 300
		pts[i] = geo.Offset(base, d, 0)
		feats.Set(i, 0, d/1000+rng.NormFloat64()*0.05)
		feats.Set(i, 1, rng.NormFloat64()*0.05)
		targets[i] = math.Sin(d/5000) * 10
	}
	return pts, feats, targets
}

func TestGaussianAdjacency(t *testing.T) {
	pts, _, _ := gnnWorld(rand.New(rand.NewSource(12)))
	adj, err := NewGaussianAdjacency(pts, 1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if adj.N() != len(pts) {
		t.Fatalf("N = %d", adj.N())
	}
	// Sparse: each node connects to a handful of neighbours, not all.
	var nnz int
	for _, c := range adj.cols {
		nnz += len(c)
	}
	if nnz >= adj.N()*adj.N()/2 {
		t.Errorf("adjacency not sparse: %d nnz", nnz)
	}
	if nnz < adj.N() {
		t.Error("adjacency missing self-loops")
	}
	// Row-stochastic-ish after symmetric normalization: Â·1 close to 1 for
	// interior nodes.
	ones := mat.New(adj.N(), 1)
	for i := 0; i < adj.N(); i++ {
		ones.Set(i, 0, 1)
	}
	prod, err := adj.Mul(ones)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 50; i++ {
		if v := prod.At(i, 0); v < 0.5 || v > 1.5 {
			t.Errorf("normalized row sum %d = %v", i, v)
		}
	}
}

func TestGaussianAdjacencyValidation(t *testing.T) {
	if _, err := NewGaussianAdjacency(nil, 100, 0.1); err == nil {
		t.Error("empty points should fail")
	}
	if _, err := NewGaussianAdjacency([]geo.Point{{Lat: 1, Lon: 1}}, 0, 0.1); err == nil {
		t.Error("zero sigma should fail")
	}
}

func TestSparseAdjMulDimMismatch(t *testing.T) {
	pts, _, _ := gnnWorld(rand.New(rand.NewSource(13)))
	adj, err := NewGaussianAdjacency(pts, 1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adj.Mul(mat.New(3, 2)); err == nil {
		t.Error("dim mismatch should fail")
	}
	x := mat.New(adj.N(), 2)
	if err := adj.MulInto(mat.New(adj.N(), 3), x); err == nil {
		t.Error("dst column mismatch should fail")
	}
	if err := adj.MulInto(mat.New(adj.N()-1, 2), x); err == nil {
		t.Error("dst row mismatch should fail")
	}
	if err := adj.MulInto(x, x); err == nil {
		t.Error("dst aliasing the operand should fail")
	}
}

func TestGNNTransductiveRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts, feats, targets := gnnWorld(rng)
	adj, err := NewGaussianAdjacency(pts, 800, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Label every third node.
	var labeled, unlabeled []int
	for i := range pts {
		if i%3 == 0 {
			labeled = append(labeled, i)
		} else {
			unlabeled = append(unlabeled, i)
		}
	}
	x := mat.New(len(labeled), 2)
	y := mat.New(len(labeled), 1)
	for r, node := range labeled {
		copy(x.Row(r), feats.Row(node))
		y.Set(r, 0, targets[node])
	}
	xu := mat.New(len(unlabeled), 2)
	for r, node := range unlabeled {
		copy(xu.Row(r), feats.Row(node))
	}
	g := NewGNN(15)
	g.Epochs = 400
	g.SetGraph(adj, labeled, unlabeled)
	if err := g.Fit(x, y, xu); err != nil {
		t.Fatal(err)
	}
	pred, err := g.Predict(xu)
	if err != nil {
		t.Fatal(err)
	}
	var mae float64
	for r, node := range unlabeled {
		mae += math.Abs(pred.At(r, 0) - targets[node])
	}
	mae /= float64(len(unlabeled))
	// Targets span [-10, 10]; anything well under the mean magnitude shows
	// learning.
	if mae > 3.0 {
		t.Errorf("GNN MAE = %v, want < 3.0", mae)
	}
}

func TestGNNErrors(t *testing.T) {
	g := NewGNN(1)
	x, y := syntheticData(rand.New(rand.NewSource(16)), 10, 0)
	if err := g.Fit(x, y, nil); err == nil {
		t.Error("Fit before SetGraph should fail")
	}
	pts, _, _ := gnnWorld(rand.New(rand.NewSource(17)))
	adj, err := NewGaussianAdjacency(pts, 800, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	g.SetGraph(adj, []int{0, 1}, []int{2})
	if err := g.Fit(x, y, nil); err == nil {
		t.Error("index/row mismatch should fail")
	}
	if _, err := g.Predict(mat.New(1, 2)); err == nil {
		t.Error("predict before fit should fail")
	}
}

func TestModelNames(t *testing.T) {
	names := map[string]Model{
		"OLS":   NewOLS(),
		"MLP":   NewMLP(1),
		"MT":    NewMeanTeacher(1),
		"COREG": NewCOREG(1),
		"GNN":   NewGNN(1),
	}
	for want, m := range names {
		if got := m.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

// servedData returns n rows shaped like a served query's training set: 19
// standardized features, about a fifth of them exactly zero, and k targets
// that depend nonlinearly on a few of them.
func servedData(rng *rand.Rand, n, k int) (*mat.Dense, *mat.Dense) {
	x := mat.New(n, 19)
	y := mat.New(n, k)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			if rng.Float64() >= 0.2 {
				row[j] = rng.NormFloat64()
			}
		}
		for j := 0; j < k; j++ {
			y.Set(i, j, math.Sin(row[j])+0.5*row[2+j]*row[4]+0.1*rng.NormFloat64())
		}
	}
	return x, y
}

// TestFitAllocsDoNotGrowWithEpochs is the workspace contract: every buffer
// an epoch touches is sized once per fit, so a fit allocates the same
// count at 10 epochs as at 400. The MLP and the GNN also fit 300 rows
// (300 nodes), past every stack chunk and tile the product kernels use,
// and must allocate no more often there: a buffer that moved to the heap
// only at large shapes would show.
func TestFitAllocsDoNotGrowWithEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type data struct {
		x, y, xu           *mat.Dense
		adj                *SparseAdj
		labeled, unlabeled []int
	}
	shape := func(rows, unlabeledRows int) data {
		x, y := servedData(rng, rows, 2)
		xu, _ := servedData(rng, unlabeledRows, 2)
		adj, labeled, unlabeled := referenceGraph(t, rng, rows+unlabeledRows, rows)
		return data{x, y, xu, adj, labeled, unlabeled}
	}
	small, large := shape(13, 40), shape(300, 0)
	fits := map[string]func(d data, epochs int) error{
		"MLP": func(d data, epochs int) error {
			m := NewMLP(1)
			m.Epochs = epochs
			return m.Fit(d.x, d.y, nil)
		},
		"MT": func(d data, epochs int) error {
			m := NewMeanTeacher(1)
			m.Epochs = epochs
			return m.Fit(d.x, d.y, d.xu)
		},
		"GNN": func(d data, epochs int) error {
			g := NewGNN(1)
			g.Epochs = epochs
			g.SetGraph(d.adj, d.labeled, d.unlabeled)
			return g.Fit(d.x, d.y, d.xu)
		},
	}
	for name, fit := range fits {
		allocs := func(d data, epochs int) float64 {
			return testing.AllocsPerRun(2, func() {
				if err := fit(d, epochs); err != nil {
					t.Fatal(err)
				}
			})
		}
		short := allocs(small, 10)
		if long := allocs(small, 400); long != short {
			t.Errorf("%s: Fit allocates %v times at 10 epochs, %v at 400", name, short, long)
		}
		if name == "MT" {
			continue
		}
		if big := allocs(large, 400); big != short {
			t.Errorf("%s: Fit allocates %v times on 13 rows, %v on 300", name, short, big)
		}
	}
}

// BenchmarkMLPFit fits the served model at the served shape: 19 features,
// 2 targets, the default 400 epochs, and the labeled-row counts of
// β = 0.05 and 0.20 on the 253-zone city.
func BenchmarkMLPFit(b *testing.B) {
	for _, rows := range []int{13, 51} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			x, y := servedData(rand.New(rand.NewSource(18)), rows, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := NewMLP(int64(i)).Fit(x, y, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
