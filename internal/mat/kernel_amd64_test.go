package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// specials are the operands where an arithmetic shortcut would show: signed
// zeros, the subnormal range and its edges, infinities, the largest finite
// value (whose products overflow) and NaN.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 - 0x1p-1074, -0x1p-1030, // the largest subnormal, a mid-range one
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
// NaN: where the reference gives NaN the kernel must too, but which NaN
// payload survives is the hardware's choice.
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

// checkMulRow runs the assembly mulRow and mulRowGo on copies of dst and
// compares them element by element.
func checkMulRow(t *testing.T, dst, v []float64, off []int, b []float64) {
	t.Helper()
	got := append([]float64(nil), dst...)
	want := append([]float64(nil), dst...)
	mulRow(got, v, off, b)
	mulRowGo(want, v, off, b)
	for j := range want {
		sameOrBothNaN(t, "dst", j, got[j], want[j])
	}
}

// mulRowCase builds one kernel call: a width-wide dst of random starting
// sums and n terms whose offsets point anywhere in b such that the whole
// width fits.
func mulRowCase(rng *rand.Rand, width, n int, value func() float64) (dst, v []float64, off []int, b []float64) {
	b = make([]float64, width+rng.Intn(3*width+8))
	for i := range b {
		b[i] = value()
	}
	dst = make([]float64, width)
	for j := range dst {
		dst[j] = value()
	}
	v, off = make([]float64, n), make([]int, n)
	for t := range v {
		v[t] = value()
		off[t] = rng.Intn(len(b) - width + 1)
	}
	return dst, v, off, b
}

// TestMulRowMatchesGo checks the assembly row kernel against mulRowGo for
// every width from 0 to 70, which covers each 8-wide block count with
// each 2-wide and scalar tail, at list lengths from 0 to 300.
func TestMulRowMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	value := func() float64 { return operand(rng) }
	for width := 0; width <= 70; width++ {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 31, 64, 65, 300} {
			dst, v, off, b := mulRowCase(rng, width, n, value)
			checkMulRow(t, dst, v, off, b)
		}
	}
}

// FuzzMulRow drives the same comparison from fuzzed shapes and operand
// bits: raw supplies the float64 bit patterns the operands cycle through.
func FuzzMulRow(f *testing.F) {
	f.Add(uint8(19), uint16(13), int64(1), []byte(nil))
	f.Add(uint8(70), uint16(300), int64(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))))
	f.Add(uint8(1), uint16(0), int64(3), binary.LittleEndian.AppendUint64(nil, 1))
	f.Fuzz(func(t *testing.T, width uint8, n uint16, seed int64, raw []byte) {
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
		dst, v, off, b := mulRowCase(rng, int(width)%71, int(n)%301, value)
		checkMulRow(t, dst, v, off, b)
	})
}
