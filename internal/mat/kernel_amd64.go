package mat

// mulRow adds Σₜ v[t]·b[off[t]+j] to dst[j] for every j, t ascending:
// four packed SSE2 accumulators over 8 columns at a time, then 2-wide and
// scalar tails (kernel_amd64.s). Every off[t]+len(dst) must be at most
// len(b); the callers in this package guarantee it.
//
//go:noescape
func mulRow(dst, v []float64, off []int, b []float64)
