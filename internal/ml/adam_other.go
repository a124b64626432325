//go:build !amd64

package ml

// adamStep runs one fused weight-decay and Adam step over the parameters p
// with gradients g and moments m and v.
func adamStep(p, g, m, v []float64, k adamCoeffs) { adamStepGo(p, g, m, v, k) }
