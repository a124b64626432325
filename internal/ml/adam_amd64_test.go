package ml

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// specials are the operands where an arithmetic shortcut would show: signed
// zeros, subnormals, infinities, the largest finite value and NaN.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074,
	math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64,
	1, -1, math.NaN(),
}

// operand draws a finite value of random sign and magnitude most of the
// time, and a special one otherwise.
func operand(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return rng.NormFloat64() * math.Ldexp(1, rng.Intn(80)-40)
}

// sameOrBothNaN fails unless got and want have the same bits, or are both
// NaN: the payload of a NaN is the hardware's choice.
func sameOrBothNaN(t *testing.T, what string, i int, got, want float64) {
	t.Helper()
	if math.IsNaN(want) {
		if !math.IsNaN(got) {
			t.Fatalf("%s[%d] = %v, want NaN", what, i, got)
		}
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkAdamStep runs the assembly adamStep and adamStepGo on copies of the
// same state and compares parameters, moments and the gradients, which
// neither may write.
func checkAdamStep(t *testing.T, p, g, m, v []float64, k adamCoeffs) {
	t.Helper()
	clone := func(s []float64) []float64 { return append([]float64(nil), s...) }
	gp, gg, gm, gv := clone(p), clone(g), clone(m), clone(v)
	wp, wg, wm, wv := clone(p), clone(g), clone(m), clone(v)
	adamStep(gp, gg, gm, gv, k)
	adamStepGo(wp, wg, wm, wv, k)
	for i := range p {
		sameOrBothNaN(t, "p", i, gp[i], wp[i])
		sameOrBothNaN(t, "m", i, gm[i], wm[i])
		sameOrBothNaN(t, "v", i, gv[i], wv[i])
		sameOrBothNaN(t, "g", i, gg[i], g[i])
	}
}

// adamCase builds n elements of optimizer state and a coefficient set. The
// coefficients are the served ones at a random step half the time, and
// drawn like the operands otherwise.
func adamCase(rng *rand.Rand, n int, value func() float64) (p, g, m, v []float64, k adamCoeffs) {
	p, g, m, v = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		p[i], g[i], m[i], v[i] = value(), value(), value(), math.Abs(value())
		if rng.Intn(8) == 0 {
			v[i] = -v[i] // a negative second moment takes sqrt into NaN
		}
	}
	if rng.Intn(2) == 0 {
		step := float64(1 + rng.Intn(400))
		k = adamCoeffs{
			wd: 1e-4, beta1: 0.9, ob1: 1 - 0.9, beta2: 0.999, ob2: 1 - 0.999, lr: 0.01, eps: 1e-8,
			c1: 1 - math.Pow(0.9, step), c2: 1 - math.Pow(0.999, step),
		}
	} else {
		k = adamCoeffs{
			wd: value(), beta1: value(), ob1: value(), beta2: value(), ob2: value(),
			lr: value(), c1: value(), c2: value(), eps: value(),
		}
	}
	k.decay = rng.Intn(2) == 0
	return p, g, m, v, k
}

// TestAdamStepMatchesGo checks the assembly Adam pass against adamStepGo
// at every length from 0 to 70, with and without weight decay.
func TestAdamStepMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	value := func() float64 { return operand(rng) }
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 8; trial++ {
			p, g, m, v, k := adamCase(rng, n, value)
			checkAdamStep(t, p, g, m, v, k)
		}
	}
}

// FuzzAdamStep drives the same comparison from fuzzed lengths and operand
// bits: raw supplies the float64 bit patterns the operands cycle through.
func FuzzAdamStep(f *testing.F) {
	f.Add(uint8(51), int64(1), []byte(nil))
	f.Add(uint8(3), int64(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(-1))))
	f.Add(uint8(0), int64(3), []byte(nil))
	f.Fuzz(func(t *testing.T, n uint8, seed int64, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		var pool []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			pool = append(pool, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		value := func() float64 {
			if len(pool) > 0 && rng.Intn(2) == 0 {
				return pool[rng.Intn(len(pool))]
			}
			return operand(rng)
		}
		p, g, m, v, k := adamCase(rng, int(n)%71, value)
		checkAdamStep(t, p, g, m, v, k)
	})
}
