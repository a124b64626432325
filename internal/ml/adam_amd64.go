package ml

// adamStep runs one fused weight-decay and Adam step over the parameters p
// with gradients g and moments m and v, two elements at a time with
// packed SSE2 arithmetic (adam_amd64.s). DIVPD and SQRTPD round correctly,
// as DIVSD and math.Sqrt do, so each element gets exactly adamStepGo's
// value. g, m and v must be at least as long as p.
//
//go:noescape
func adamStep(p, g, m, v []float64, k adamCoeffs)
