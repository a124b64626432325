package mat

// The three *Into products share one row kernel. For each output row they
// first compact that row's nonzero left factors into a list of values and
// the offsets in b of the rows those values scale, then hand the list to
// mulRow, which adds Σₜ v[t]·b[off[t]+j] to every dst[j], t ascending.
// Compaction is what skips zero factors, so the kernel itself never tests
// one; the lists live on the stack one chunk at a time, so no product
// allocates at any shape.

// chunk is how many left factors one mulRow call takes at most.
const chunk = 64

// tile is how many elements of bᵀ MulTransBInto holds at once: a block of
// at most chunk reduction rows by as many output columns as fit.
const tile = 1024

// factors is one chunk of an output row's nonzero left factors.
type factors struct {
	v   [chunk]float64
	off [chunk]int
}

// gather compacts the nonzero entries among a[s], a[s+ds], …, n ≤ chunk of
// them, into f, recording with each kept a[s+t·ds] the offset o+t·do. It
// returns how many it kept. The stores always happen and only the count
// depends on the test, so the compiled loop has no data-dependent branch.
// kept ≤ t < chunk at every store, so the masks only drop the bounds
// checks.
func (f *factors) gather(a []float64, s, ds, n, o, do int) int {
	kept := 0
	for t := 0; t < n; t++ {
		x := a[s]
		f.v[kept&(chunk-1)] = x
		f.off[kept&(chunk-1)] = o
		inc := 0
		if x != 0 {
			inc = 1
		}
		kept += inc
		s += ds
		o += do
	}
	return kept
}

// mulRowGo is mulRow in Go: the implementation on every GOARCH without an
// assembly kernel, and the oracle the assembly is tested against. Each
// dst[j] is one running sum that adds the terms in list order, so the
// result does not depend on how the kernel blocks the columns.
func mulRowGo(dst, v []float64, off []int, b []float64) {
	for j := range dst {
		s := dst[j]
		for t, vt := range v {
			s += vt * b[off[t]+j]
		}
		dst[j] = s
	}
}
