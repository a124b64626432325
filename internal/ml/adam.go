package ml

import "math"

// adamCoeffs are the scalars of one Adam step over one parameter slice.
// ob1 and ob2 are 1-beta1 and 1-beta2; c1 and c2 are the bias corrections
// 1-beta1ᵗ and 1-beta2ᵗ. When decay is set, the L2 penalty gradient wd·p
// is added to each gradient before the step.
type adamCoeffs struct {
	wd, beta1, ob1, beta2, ob2, lr, c1, c2, eps float64
	decay                                       bool
}

// adamStepGo is adamStep in Go: the implementation on every GOARCH without
// an assembly kernel, and the oracle the assembly is tested against. The
// expressions are the optimizer's, operation for operation; g is only read.
func adamStepGo(p, g, m, v []float64, k adamCoeffs) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for i := range p {
		gi := g[i]
		if k.decay {
			gi += k.wd * p[i]
		}
		m[i] = k.beta1*m[i] + k.ob1*gi
		v[i] = k.beta2*v[i] + k.ob2*gi*gi
		p[i] -= k.lr * (m[i] / k.c1) / (math.Sqrt(v[i]/k.c2) + k.eps)
	}
}
