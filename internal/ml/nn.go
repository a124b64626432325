package ml

import (
	"fmt"
	"math"
	"math/rand"

	"accessquery/internal/mat"
)

// network is a small fully connected net with ReLU hidden layers and a
// linear output, shared by the MLP and Mean Teacher models.
type network struct {
	sizes []int // [in, hidden..., out]
	w     []*mat.Dense
	b     [][]float64
}

func newNetwork(sizes []int, rng *rand.Rand) *network {
	n := &network{sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		w := mat.New(sizes[l], sizes[l+1])
		// He initialization for ReLU layers.
		gaussianInit(w, rng, math.Sqrt(2/float64(sizes[l])))
		n.w = append(n.w, w)
		n.b = append(n.b, make([]float64, sizes[l+1]))
	}
	return n
}

// clone deep-copies the network (used to spawn the teacher).
func (n *network) clone() *network {
	out := &network{sizes: append([]int(nil), n.sizes...)}
	for l := range n.w {
		out.w = append(out.w, n.w[l].Clone())
		out.b = append(out.b, append([]float64(nil), n.b[l]...))
	}
	return out
}

// workspace holds every matrix one training pass over a fixed batch needs,
// sized once per fit from (rows, sizes), so the epoch loop allocates
// nothing. as[0] is the batch itself and as[l+1] is layer l's activation;
// for the linear output layer that is zs[l] itself.
type workspace struct {
	zs, as []*mat.Dense
	deltas []*mat.Dense // deltas[l] is the loss gradient w.r.t. zs[l]
	g      grads
}

// newWorkspace sizes the forward and backward buffers of a training batch.
func newWorkspace(rows int, sizes []int) *workspace {
	ws := newForwardWorkspace(rows, sizes)
	for l := 0; l+1 < len(sizes); l++ {
		ws.deltas = append(ws.deltas, mat.New(rows, sizes[l+1]))
		ws.g.w = append(ws.g.w, mat.New(sizes[l], sizes[l+1]))
		ws.g.b = append(ws.g.b, make([]float64, sizes[l+1]))
	}
	return ws
}

// newForwardWorkspace sizes only the forward buffers, for prediction.
func newForwardWorkspace(rows int, sizes []int) *workspace {
	last := len(sizes) - 2
	ws := &workspace{as: make([]*mat.Dense, 1, len(sizes))}
	for l := 0; l <= last; l++ {
		z := mat.New(rows, sizes[l+1])
		ws.zs = append(ws.zs, z)
		if l < last {
			ws.as = append(ws.as, mat.New(rows, sizes[l+1]))
		} else {
			ws.as = append(ws.as, z) // linear output
		}
	}
	return ws
}

// out is the network output of the last forward pass.
func (ws *workspace) out() *mat.Dense { return ws.zs[len(ws.zs)-1] }

// outDelta is the loss gradient w.r.t. the network output.
func (ws *workspace) outDelta() *mat.Dense { return ws.deltas[len(ws.deltas)-1] }

// forward runs the batch x through the network, leaving the pre-activation
// and activation of every layer in ws.
func (n *network) forward(ws *workspace, x *mat.Dense) error {
	ws.as[0] = x
	last := len(n.w) - 1
	for l := range n.w {
		z := ws.zs[l]
		if err := mat.MulInto(z, ws.as[l], n.w[l]); err != nil {
			return fmt.Errorf("ml: layer %d: %w", l, err)
		}
		if err := z.AddRowVector(n.b[l]); err != nil {
			return err
		}
		if l < last {
			reluInto(ws.as[l+1], z)
		}
	}
	return nil
}

// predict returns the network output for x in a fresh matrix.
func (n *network) predict(x *mat.Dense) (*mat.Dense, error) {
	ws := newForwardWorkspace(x.Rows(), n.sizes)
	if err := n.forward(ws, x); err != nil {
		return nil, err
	}
	return ws.out(), nil
}

func relu(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// reluInto sets dst to relu(z) elementwise; both share a shape.
func reluInto(dst, z *mat.Dense) {
	for i := 0; i < z.Rows(); i++ {
		drow := dst.Row(i)
		for j, v := range z.Row(i) {
			drow[j] = relu(v)
		}
	}
}

// reluMask zeroes the entries of d whose pre-activation in z is not
// positive: the chain rule through a ReLU.
func reluMask(d, z *mat.Dense) {
	for i := 0; i < d.Rows(); i++ {
		drow := d.Row(i)
		zrow := z.Row(i)
		for j := range drow {
			if zrow[j] <= 0 {
				drow[j] = 0
			}
		}
	}
}

// colSumsInto sets dst to the column sums of m.
func colSumsInto(dst []float64, m *mat.Dense) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows(); i++ {
		for j, v := range m.Row(i) {
			dst[j] += v
		}
	}
}

// grads holds per-layer weight and bias gradients.
type grads struct {
	w []*mat.Dense
	b [][]float64
}

// backward computes the loss gradients of the batch last run through
// forward into ws.g. ws.outDelta() must hold the gradient of the loss
// w.r.t. the network output; mseDelta writes it, and a caller may rescale
// it so consistency losses reuse the same machinery.
func (n *network) backward(ws *workspace) error {
	for l := len(n.w) - 1; l >= 0; l-- {
		delta := ws.deltas[l]
		// dW = aₗᵀ · delta ; db = column sums of delta.
		if err := mat.MulTransAInto(ws.g.w[l], ws.as[l], delta); err != nil {
			return err
		}
		colSumsInto(ws.g.b[l], delta)
		if l == 0 {
			break
		}
		// Propagate: deltaPrev = (delta · Wᵀ) ⊙ relu'(z_{l-1}).
		if err := mat.MulTransBInto(ws.deltas[l-1], delta, n.w[l]); err != nil {
			return err
		}
		reluMask(ws.deltas[l-1], ws.zs[l-1])
	}
	return nil
}

// adam is a per-network Adam optimizer state.
type adam struct {
	lr, beta1, beta2, eps float64
	t                     int
	mw, vw                []*mat.Dense
	mb, vb                [][]float64
}

func newAdam(n *network, lr float64) *adam {
	a := &adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	for l := range n.w {
		a.mw = append(a.mw, mat.New(n.w[l].Rows(), n.w[l].Cols()))
		a.vw = append(a.vw, mat.New(n.w[l].Rows(), n.w[l].Cols()))
		a.mb = append(a.mb, make([]float64, len(n.b[l])))
		a.vb = append(a.vb, make([]float64, len(n.b[l])))
	}
	return a
}

// step applies one Adam update to n given gradients g.
func (a *adam) step(n *network, g *grads) { a.update(n, g, 0) }

// update applies one Adam update to n given gradients g, after adding the
// L2 penalty gradient wd·w to each weight gradient unless wd ≤ 0. Each
// layer's weights and biases take one fused pass each (adamStep); g is
// only read.
func (a *adam) update(n *network, g *grads, wd float64) {
	a.t++
	k := adamCoeffs{
		wd: wd, beta1: a.beta1, ob1: 1 - a.beta1, beta2: a.beta2, ob2: 1 - a.beta2,
		lr: a.lr, eps: a.eps,
		c1: 1 - math.Pow(a.beta1, float64(a.t)),
		c2: 1 - math.Pow(a.beta2, float64(a.t)),
	}
	for l := range n.w {
		k.decay = !(wd <= 0)
		adamStep(n.w[l].Data(), g.w[l].Data(), a.mw[l].Data(), a.vw[l].Data(), k)
		k.decay = false
		adamStep(n.b[l], g.b[l], a.mb[l], a.vb[l], k)
	}
}

// mseDelta writes (pred-target)·(2/n), the output-layer gradient of mean
// squared error for the output of the last forward pass, into
// ws.outDelta() and returns the loss value.
func mseDelta(ws *workspace, target *mat.Dense) (float64, error) {
	pred, d := ws.out(), ws.outDelta()
	if pred.Rows() != target.Rows() || pred.Cols() != target.Cols() {
		return 0, fmt.Errorf("ml: prediction is %dx%d, target %dx%d",
			pred.Rows(), pred.Cols(), target.Rows(), target.Cols())
	}
	nTot := float64(d.Rows() * d.Cols())
	scale := 2 / nTot
	var loss float64
	for i := 0; i < d.Rows(); i++ {
		drow, trow := d.Row(i), target.Row(i)
		for j, p := range pred.Row(i) {
			v := p - trow[j]
			loss += v * v
			drow[j] = v * scale
		}
	}
	if nTot > 0 {
		loss /= nTot
	}
	return loss, nil
}

// emaUpdate moves teacher parameters toward student: θ_t = α·θ_t + (1-α)·θ_s.
func emaUpdate(teacher, student *network, alpha float64) {
	for l := range teacher.w {
		tw, sw := teacher.w[l], student.w[l]
		for i := 0; i < tw.Rows(); i++ {
			tr := tw.Row(i)
			sr := sw.Row(i)
			for j := range tr {
				tr[j] = alpha*tr[j] + (1-alpha)*sr[j]
			}
		}
		for j := range teacher.b[l] {
			teacher.b[l][j] = alpha*teacher.b[l][j] + (1-alpha)*student.b[l][j]
		}
	}
}

// addNoiseInto sets dst to x plus N(0, sigma²) noise drawn in row-major
// order, used for consistency perturbations.
func addNoiseInto(dst, x *mat.Dense, rng *rand.Rand, sigma float64) {
	for i := 0; i < x.Rows(); i++ {
		drow := dst.Row(i)
		for j, v := range x.Row(i) {
			drow[j] = v + rng.NormFloat64()*sigma
		}
	}
}
