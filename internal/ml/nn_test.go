package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"accessquery/internal/mat"
)

func TestNetworkForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := newNetwork([]int{3, 5, 2}, rng)
	x := mat.New(7, 3)
	ws := newWorkspace(7, n.sizes)
	if err := n.forward(ws, x); err != nil {
		t.Fatal(err)
	}
	if len(ws.zs) != 2 || len(ws.as) != 3 {
		t.Fatalf("zs=%d as=%d", len(ws.zs), len(ws.as))
	}
	if ws.as[2].Rows() != 7 || ws.as[2].Cols() != 2 {
		t.Fatalf("output %dx%d", ws.as[2].Rows(), ws.as[2].Cols())
	}
	if ws.as[2] != ws.out() {
		t.Error("output activation is not the workspace output")
	}
	// A batch of another height does not fit the workspace.
	if err := n.forward(ws, mat.New(6, 3)); err == nil {
		t.Error("forward accepted a batch the workspace was not sized for")
	}
}

func TestNetworkCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := newNetwork([]int{2, 3, 1}, rng)
	c := n.clone()
	n.w[0].Set(0, 0, 999)
	n.b[0][0] = 777
	if c.w[0].At(0, 0) == 999 || c.b[0][0] == 777 {
		t.Error("clone shares storage with original")
	}
}

func TestReLU(t *testing.T) {
	if relu(-1) != 0 || relu(0) != 0 || relu(2.5) != 2.5 {
		t.Error("relu wrong")
	}
}

func TestMSEDelta(t *testing.T) {
	pred, _ := mat.FromRows([][]float64{{1, 2}})
	target, _ := mat.FromRows([][]float64{{0, 4}})
	ws := newWorkspace(1, []int{1, 2})
	for j, v := range pred.Row(0) {
		ws.out().Set(0, j, v)
	}
	loss, err := mseDelta(ws, target)
	if err != nil {
		t.Fatal(err)
	}
	// loss = (1 + 4)/2 = 2.5.
	if math.Abs(loss-2.5) > 1e-12 {
		t.Errorf("loss = %v", loss)
	}
	// delta = (pred-target)*2/n = {1,-2} * 1.
	d := ws.outDelta()
	if math.Abs(d.At(0, 0)-1) > 1e-12 || math.Abs(d.At(0, 1)+2) > 1e-12 {
		t.Errorf("delta = %v %v", d.At(0, 0), d.At(0, 1))
	}
}

func TestEMAUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	student := newNetwork([]int{1, 2, 1}, rng)
	teacher := student.clone()
	// Move student far away, then EMA with alpha 0.5.
	student.w[0].Set(0, 0, 10)
	before := teacher.w[0].At(0, 0)
	emaUpdate(teacher, student, 0.5)
	want := 0.5*before + 0.5*10
	if math.Abs(teacher.w[0].At(0, 0)-want) > 1e-12 {
		t.Errorf("ema = %v, want %v", teacher.w[0].At(0, 0), want)
	}
}

func TestAddNoiseChangesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := mat.New(5, 3)
	noisy := mat.New(5, 3)
	addNoiseInto(noisy, x, rng, 1.0)
	var diff float64
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			diff += math.Abs(noisy.At(i, j) - x.At(i, j))
		}
	}
	if diff == 0 {
		t.Error("noise had no effect")
	}
	// Source untouched.
	if x.At(0, 0) != 0 {
		t.Error("addNoiseInto mutated input")
	}
}

// applyWeightDecay adds the L2 penalty gradient wd·w to g in place: the
// separate pass that adam.update now fuses into the step, kept as the
// oracle of that fusion.
func applyWeightDecay(n *network, g *grads, wd float64) {
	if wd <= 0 {
		return
	}
	for l := range n.w {
		w := n.w[l]
		for i := 0; i < w.Rows(); i++ {
			wr := w.Row(i)
			gr := g.w[l].Row(i)
			for j := range wr {
				gr[j] += wd * wr[j]
			}
		}
	}
}

// TestApplyWeightDecay checks the fused update against the separate decay
// pass followed by a plain step, bit for bit, over several steps: with
// decay, without it, and with a non-positive wd, which decays nothing.
// The fused update leaves the gradients as it found them.
func TestApplyWeightDecay(t *testing.T) {
	for _, wd := range []float64{0.1, 1e-4, 0, -1} {
		rng := rand.New(rand.NewSource(5))
		sizes := []int{3, 5, 2}
		fused := newNetwork(sizes, rng)
		split := fused.clone()
		fusedOpt, splitOpt := newAdam(fused, 0.01), newAdam(split, 0.01)
		for step := 0; step < 5; step++ {
			g := &grads{}
			for l := range fused.w {
				gw := mat.New(fused.w[l].Rows(), fused.w[l].Cols())
				for i := range gw.Data() {
					gw.Data()[i] = rng.NormFloat64()
				}
				gb := make([]float64, len(fused.b[l]))
				for i := range gb {
					gb[i] = rng.NormFloat64()
				}
				g.w, g.b = append(g.w, gw), append(g.b, gb)
			}
			before := g.w[0].Clone()
			fusedOpt.update(fused, g, wd)
			sameBits(t, fmt.Sprintf("wd=%v step %d: gradient", wd, step), g.w[0], before)
			applyWeightDecay(split, g, wd)
			splitOpt.step(split, g)
			sameNetwork(t, fmt.Sprintf("wd=%v step %d", wd, step), fused, split)
		}
	}
}

func TestAdamStepMovesWeightsDownhill(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// One-layer linear network learning y = 2x by gradient steps.
	n := newNetwork([]int{1, 1}, rng)
	opt := newAdam(n, 0.05)
	x, _ := mat.FromRows([][]float64{{1}, {2}, {-1}})
	y, _ := mat.FromRows([][]float64{{2}, {4}, {-2}})
	ws := newWorkspace(3, n.sizes)
	var lastLoss float64 = math.Inf(1)
	for e := 0; e < 400; e++ {
		if err := n.forward(ws, x); err != nil {
			t.Fatal(err)
		}
		loss, err := mseDelta(ws, y)
		if err != nil {
			t.Fatal(err)
		}
		if e == 399 {
			lastLoss = loss
		}
		if err := n.backward(ws); err != nil {
			t.Fatal(err)
		}
		opt.step(n, &ws.g)
	}
	if lastLoss > 1e-3 {
		t.Errorf("final loss = %v, want < 1e-3", lastLoss)
	}
	if w := n.w[0].At(0, 0); math.Abs(w-2) > 0.1 {
		t.Errorf("learned weight = %v, want ~2", w)
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	// Verify backprop against numeric differentiation on a tiny net.
	rng := rand.New(rand.NewSource(7))
	n := newNetwork([]int{2, 3, 1}, rng)
	x, _ := mat.FromRows([][]float64{{0.5, -0.3}, {-0.1, 0.8}})
	y, _ := mat.FromRows([][]float64{{1}, {-1}})
	// The numeric probes run in their own workspace so they cannot
	// disturb the analytic gradients.
	probe := newWorkspace(2, n.sizes)
	lossOf := func() float64 {
		if err := n.forward(probe, x); err != nil {
			t.Fatal(err)
		}
		loss, err := mseDelta(probe, y)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	ws := newWorkspace(2, n.sizes)
	if err := n.forward(ws, x); err != nil {
		t.Fatal(err)
	}
	if _, err := mseDelta(ws, y); err != nil {
		t.Fatal(err)
	}
	if err := n.backward(ws); err != nil {
		t.Fatal(err)
	}
	g := &ws.g
	const eps = 1e-6
	for l := range n.w {
		for i := 0; i < n.w[l].Rows(); i++ {
			for j := 0; j < n.w[l].Cols(); j++ {
				orig := n.w[l].At(i, j)
				n.w[l].Set(i, j, orig+eps)
				up := lossOf()
				n.w[l].Set(i, j, orig-eps)
				down := lossOf()
				n.w[l].Set(i, j, orig)
				numeric := (up - down) / (2 * eps)
				analytic := g.w[l].At(i, j)
				if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("layer %d w[%d][%d]: analytic %v, numeric %v",
						l, i, j, analytic, numeric)
				}
			}
		}
		for j := range n.b[l] {
			orig := n.b[l][j]
			n.b[l][j] = orig + eps
			up := lossOf()
			n.b[l][j] = orig - eps
			down := lossOf()
			n.b[l][j] = orig
			numeric := (up - down) / (2 * eps)
			analytic := g.b[l][j]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d b[%d]: analytic %v, numeric %v", l, j, analytic, numeric)
			}
		}
	}
}
