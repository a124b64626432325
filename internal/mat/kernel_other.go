//go:build !amd64

package mat

// mulRow adds Σₜ v[t]·b[off[t]+j] to dst[j] for every j, t ascending.
func mulRow(dst, v []float64, off []int, b []float64) { mulRowGo(dst, v, off, b) }
