package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At broken")
	}
	row := m.Row(1)
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("Row should be a view")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := New(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Row(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Error("FromRows wrong layout")
	}
	if _, err := FromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged rows should fail")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Error("empty FromRows should give 0x0")
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if !almostEq(c.At(i, j), want[i][j]) {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := Mul(a, New(3, 2)); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("dims %dx%d", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Error("transpose values wrong")
	}
}

func TestAddSubScaleApply(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b, _ := FromRows([][]float64{{3, 5}})
	sum, err := Add(a, b)
	if err != nil || sum.At(0, 0) != 4 || sum.At(0, 1) != 7 {
		t.Error("Add wrong")
	}
	diff, err := Sub(b, a)
	if err != nil || diff.At(0, 0) != 2 || diff.At(0, 1) != 3 {
		t.Error("Sub wrong")
	}
	if _, err := Add(a, New(2, 2)); err == nil {
		t.Error("Add mismatch should fail")
	}
	if _, err := Sub(a, New(2, 2)); err == nil {
		t.Error("Sub mismatch should fail")
	}
	sc := a.Clone().Scale(10)
	if sc.At(0, 1) != 20 {
		t.Error("Scale wrong")
	}
	ap := a.Clone().Apply(func(v float64) float64 { return v * v })
	if ap.At(0, 1) != 4 {
		t.Error("Apply wrong")
	}
	// Original untouched.
	if a.At(0, 0) != 1 {
		t.Error("Clone-based ops mutated source")
	}
}

func TestAddRowVector(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 1}, {2, 2}})
	if err := m.AddRowVector([]float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 11 || m.At(1, 1) != 22 {
		t.Error("AddRowVector wrong")
	}
	if err := m.AddRowVector([]float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestSolveIdentity(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 0}, {0, 1}})
	b, _ := FromRows([][]float64{{3}, {4}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x.At(0, 0), 3) || !almostEq(x.At(1, 0), 4) {
		t.Errorf("identity solve wrong: %v %v", x.At(0, 0), x.At(1, 0))
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	b, _ := FromRows([][]float64{{5}, {10}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x.At(0, 0), 1) || !almostEq(x.At(1, 0), 3) {
		t.Errorf("solve = (%v, %v), want (1, 3)", x.At(0, 0), x.At(1, 0))
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the initial pivot forces a row swap.
	a, _ := FromRows([][]float64{{0, 1}, {1, 0}})
	b, _ := FromRows([][]float64{{2}, {7}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x.At(0, 0), 7) || !almostEq(x.At(1, 0), 2) {
		t.Errorf("pivot solve wrong: %v %v", x.At(0, 0), x.At(1, 0))
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	b, _ := FromRows([][]float64{{1}, {2}})
	if _, err := Solve(a, b); err == nil {
		t.Error("singular system should fail")
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(New(2, 3), New(2, 1)); err == nil {
		t.Error("non-square should fail")
	}
	if _, err := Solve(New(2, 2), New(3, 1)); err == nil {
		t.Error("rhs mismatch should fail")
	}
}

func TestSolveRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			// Diagonal dominance keeps the system well-conditioned.
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := New(n, 1)
		for i := 0; i < n; i++ {
			want.Set(i, 0, rng.NormFloat64()*10)
		}
		b, err := Mul(a, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(got.At(i, 0)-want.At(i, 0)) > 1e-6 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got.At(i, 0), want.At(i, 0))
			}
		}
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	b, _ := FromRows([][]float64{{5}, {10}})
	ac, bc := a.Clone(), b.Clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if a.At(i, j) != ac.At(i, j) {
				t.Fatal("Solve mutated a")
			}
		}
		if b.At(i, 0) != bc.At(i, 0) {
			t.Fatal("Solve mutated b")
		}
	}
}

func TestColumnStats(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 10}, {3, 10}})
	means, stds := ColumnStats(m)
	if !almostEq(means[0], 2) || !almostEq(means[1], 10) {
		t.Errorf("means = %v", means)
	}
	if !almostEq(stds[0], 1) {
		t.Errorf("std[0] = %v, want 1", stds[0])
	}
	// Constant column gets std 1 to avoid division by zero.
	if stds[1] != 1 {
		t.Errorf("constant column std = %v, want 1", stds[1])
	}
}

func TestColumnStatsEmpty(t *testing.T) {
	means, stds := ColumnStats(New(0, 3))
	if len(means) != 3 || len(stds) != 3 {
		t.Fatal("wrong lengths")
	}
	for j := 0; j < 3; j++ {
		if means[j] != 0 || stds[j] != 1 {
			t.Error("empty stats should be mean 0, std 1")
		}
	}
}

func TestStandardize(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 5}, {3, 7}})
	means, stds := ColumnStats(m)
	s, err := Standardize(m, means, stds)
	if err != nil {
		t.Fatal(err)
	}
	// Standardized columns have mean 0.
	for j := 0; j < 2; j++ {
		if !almostEq(s.At(0, j)+s.At(1, j), 0) {
			t.Errorf("column %d not centered", j)
		}
	}
	if _, err := Standardize(m, means[:1], stds); err == nil {
		t.Error("stats mismatch should fail")
	}
	// Source untouched.
	if m.At(0, 0) != 1 {
		t.Error("Standardize mutated input")
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		mk := func() *Dense {
			m := New(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					m.Set(i, j, rng.NormFloat64())
				}
			}
			return m
		}
		a, b, c := mk(), mk(), mk()
		ab, _ := Mul(a, b)
		abc1, _ := Mul(ab, c)
		bc, _ := Mul(b, c)
		abc2, _ := Mul(a, bc)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(abc1.At(i, j)-abc2.At(i, j)) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// refMul is Mul as it was before the *Into kernels: it accumulates into a
// zeroed output in i, k, j order. The kernels must match it bit for bit.
func refMul(a, b *Dense) *Dense {
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// sparseRandom returns a rows x cols matrix with about half its entries
// exactly zero (some of them -0), as ReLU activations have.
func sparseRandom(rng *rand.Rand, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.data {
		switch r := rng.Float64(); {
		case r < 0.45:
		case r < 0.5:
			m.data[i] = math.Copysign(0, -1)
		default:
			m.data[i] = rng.NormFloat64()
		}
	}
	return m
}

// garbage returns a rows x cols matrix of NaNs, so a kernel that fails to
// overwrite an element shows.
func garbage(rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = math.NaN()
	}
	return m
}

func sameBits(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: %dx%d, want %dx%d", name, got.rows, got.cols, want.rows, want.cols)
	}
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", name, i,
				got.data[i], math.Float64bits(got.data[i]), want.data[i], math.Float64bits(want.data[i]))
		}
	}
}

func TestIntoKernelsMatchMulBitwise(t *testing.T) {
	// Widths 1-5 and 19 run every tail of the 4-wide blocking, alone and
	// after full blocks.
	widths := []int{1, 2, 3, 4, 5, 19}
	rng := rand.New(rand.NewSource(42))
	for _, n := range widths {
		for _, p := range widths {
			for _, q := range widths {
				a := sparseRandom(rng, n, p)
				b := sparseRandom(rng, p, q)
				name := func(k string) string { return fmt.Sprintf("%s n=%d p=%d q=%d", k, n, p, q) }

				dst := garbage(n, q)
				if err := MulInto(dst, a, b); err != nil {
					t.Fatal(err)
				}
				sameBits(t, name("MulInto"), dst, refMul(a, b))
				got, err := Mul(a, b)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, name("Mul"), got, refMul(a, b))

				// aᵀ·b with a: n x p and b: n x q.
				bt := sparseRandom(rng, n, q)
				dst = garbage(p, q)
				if err := MulTransAInto(dst, a, bt); err != nil {
					t.Fatal(err)
				}
				sameBits(t, name("MulTransAInto"), dst, refMul(a.Transpose(), bt))

				// a·bᵀ with a: n x p and b: q x p.
				bb := sparseRandom(rng, q, p)
				dst = garbage(n, q)
				if err := MulTransBInto(dst, a, bb); err != nil {
					t.Fatal(err)
				}
				sameBits(t, name("MulTransBInto"), dst, refMul(a, bb.Transpose()))
			}
		}
	}
}

func TestIntoKernelsShapeErrors(t *testing.T) {
	a, b := New(2, 3), New(3, 4)
	sq := New(3, 3)
	cases := []struct {
		name string
		err  error
	}{
		{"MulInto inner", MulInto(New(2, 4), a, New(2, 4))},
		{"MulInto dst rows", MulInto(New(3, 4), a, b)},
		{"MulInto dst cols", MulInto(New(2, 3), a, b)},
		{"MulInto dst is a", MulInto(sq, sq, New(3, 3))},
		{"MulInto dst is b", MulInto(sq, New(3, 3), sq)},
		{"MulTransAInto inner", MulTransAInto(New(3, 4), a, b)},
		{"MulTransAInto dst rows", MulTransAInto(New(2, 4), a, New(2, 4))},
		{"MulTransAInto dst cols", MulTransAInto(New(3, 3), a, New(2, 4))},
		{"MulTransAInto dst is a", MulTransAInto(sq, sq, New(3, 3))},
		{"MulTransBInto inner", MulTransBInto(New(2, 3), a, New(3, 4))},
		{"MulTransBInto dst rows", MulTransBInto(New(3, 4), a, New(4, 3))},
		{"MulTransBInto dst cols", MulTransBInto(New(2, 3), a, New(4, 3))},
		{"MulTransBInto dst is b", MulTransBInto(sq, New(3, 3), sq)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if _, err := Mul(a, New(2, 4)); err == nil {
		t.Error("Mul: no error on inner mismatch")
	}
}

func TestIntoKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := sparseRandom(rng, 13, 19), sparseRandom(rng, 19, 32)
	dst, dstA, dstB := New(13, 32), New(19, 32), New(13, 19)
	c := sparseRandom(rng, 13, 32)
	if n := testing.AllocsPerRun(10, func() {
		_ = MulInto(dst, a, b)
		_ = MulTransAInto(dstA, a, c)
		_ = MulTransBInto(dstB, c, b)
	}); n != 0 {
		t.Errorf("kernels allocate %v times per call set, want 0", n)
	}
}

// TestIntoKernelsAcrossChunks repeats the bitwise comparison at shapes
// whose reduction spans several compaction chunks and whose bᵀ spans
// several MulTransBInto tiles in both directions, and checks that those
// shapes allocate nothing either.
func TestIntoKernelsAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range []struct{ n, p, q int }{
		{3, chunk - 1, 5}, {3, chunk, 17}, {2, chunk + 1, 9},
		{5, 2*chunk + 3, 40}, {300, 19, 2}, {4, 300, 70}, {70, 130, tile/chunk + 3},
	} {
		name := func(k string) string { return fmt.Sprintf("%s n=%d p=%d q=%d", k, s.n, s.p, s.q) }
		a, b := sparseRandom(rng, s.n, s.p), sparseRandom(rng, s.p, s.q)
		dst := garbage(s.n, s.q)
		if err := MulInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		sameBits(t, name("MulInto"), dst, refMul(a, b))

		bt := sparseRandom(rng, s.n, s.q)
		dstA := garbage(s.p, s.q)
		if err := MulTransAInto(dstA, a, bt); err != nil {
			t.Fatal(err)
		}
		sameBits(t, name("MulTransAInto"), dstA, refMul(a.Transpose(), bt))

		bb := sparseRandom(rng, s.q, s.p)
		dstB := garbage(s.n, s.q)
		if err := MulTransBInto(dstB, a, bb); err != nil {
			t.Fatal(err)
		}
		sameBits(t, name("MulTransBInto"), dstB, refMul(a, bb.Transpose()))

		if n := testing.AllocsPerRun(3, func() {
			_ = MulInto(dst, a, b)
			_ = MulTransAInto(dstA, a, bt)
			_ = MulTransBInto(dstB, a, bb)
		}); n != 0 {
			t.Errorf("%s: %v allocations per call set, want 0", name("kernels"), n)
		}
	}
}

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := New(64, 64)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mul(m, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulInto64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := New(64, 64)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	dst := New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MulInto(dst, m, m); err != nil {
			b.Fatal(err)
		}
	}
}
