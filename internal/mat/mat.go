// Package mat provides the dense float64 matrix operations the SSR models
// need: multiplication (allocating, or into a reused destination, with or
// without a transposed operand), transpose, elementwise arithmetic, linear
// solves via Gaussian elimination with partial pivoting, and column
// statistics for feature standardization. It is deliberately small — just
// enough linear algebra for OLS, MLPs, and graph convolutions at
// access-query scale.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("mat: row %d has %d entries, want %d", i, len(r), c)
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// Rows returns the row count.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view of row i; mutating it mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of bounds %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the matrix's row-major backing slice; mutating it mutates
// the matrix.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Mul returns a*b.
func Mul(a, b *Dense) (*Dense, error) {
	out := New(a.rows, b.cols)
	if err := MulInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// The three *Into kernels below overwrite a caller-supplied dst, so a loop
// that reuses dst allocates nothing. Every output element is computed with
// the same arithmetic: the sum starts at +0, runs over the reduction index
// in ascending order and skips terms whose left factor is 0. So
// MulTransAInto and MulTransBInto equal Mul(a.Transpose(), b) and
// Mul(a, b.Transpose()) bit for bit. dst must not be a or b. Each compacts
// an output row's nonzero left factors and runs the row kernel over them
// (kernel.go); a reduction longer than one chunk takes several kernel
// calls, which continue the same running sums in order.

// MulInto sets dst to a*b.
func MulInto(dst, a, b *Dense) error {
	if a.cols != b.rows {
		return fmt.Errorf("mat: cannot multiply %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst(dst, a, b, a.rows, b.cols); err != nil {
		return err
	}
	p, q := a.cols, b.cols
	clear(dst.data)
	var f factors
	for i := 0; i < a.rows; i++ {
		orow := dst.data[i*q : (i+1)*q]
		for k0 := 0; k0 < p; k0 += chunk {
			n := f.gather(a.data, i*p+k0, 1, min(chunk, p-k0), k0*q, q)
			mulRow(orow, f.v[:n], f.off[:n], b.data)
		}
	}
	return nil
}

// MulTransAInto sets dst to aᵀ*b without building the transpose: output
// row i gathers its factors down column i of a.
func MulTransAInto(dst, a, b *Dense) error {
	if a.rows != b.rows {
		return fmt.Errorf("mat: cannot multiply (%dx%d)ᵀ by %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst(dst, a, b, a.cols, b.cols); err != nil {
		return err
	}
	p, q := a.cols, b.cols
	clear(dst.data)
	var f factors
	for i := 0; i < p; i++ {
		orow := dst.data[i*q : (i+1)*q]
		for k0 := 0; k0 < a.rows; k0 += chunk {
			n := f.gather(a.data, k0*p+i, p, min(chunk, a.rows-k0), k0*q, q)
			mulRow(orow, f.v[:n], f.off[:n], b.data)
		}
	}
	return nil
}

// MulTransBInto sets dst to a*bᵀ. The row kernel needs the reduction index
// on rows, so it copies bᵀ a tile at a time onto the stack — up to chunk
// reduction rows by as many output columns as fit in tile elements — and
// runs every row of a over each tile. Tiles advance along the reduction
// index in ascending order, so each output's sum keeps its order.
func MulTransBInto(dst, a, b *Dense) error {
	if a.cols != b.cols {
		return fmt.Errorf("mat: cannot multiply %dx%d by (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDst(dst, a, b, a.rows, b.rows); err != nil {
		return err
	}
	p, q := a.cols, b.rows
	clear(dst.data)
	if p == 0 || q == 0 {
		return nil
	}
	var f factors
	var bt [tile]float64
	kc := min(p, chunk)
	jc := min(q, tile/kc)
	for k0 := 0; k0 < p; k0 += kc {
		kn := min(kc, p-k0)
		for j0 := 0; j0 < q; j0 += jc {
			w := min(jc, q-j0)
			for j := 0; j < w; j++ {
				for k, v := range b.data[(j0+j)*p+k0 : (j0+j)*p+k0+kn] {
					bt[k*w+j] = v
				}
			}
			for i := 0; i < a.rows; i++ {
				n := f.gather(a.data, i*p+k0, 1, kn, 0, w)
				mulRow(dst.data[i*q+j0:i*q+j0+w], f.v[:n], f.off[:n], bt[:kn*w])
			}
		}
	}
	return nil
}

// checkDst reports whether dst can receive a rows x cols product of a and b.
func checkDst(dst, a, b *Dense, rows, cols int) error {
	if dst.rows != rows || dst.cols != cols {
		return fmt.Errorf("mat: product is %dx%d, dst is %dx%d", rows, cols, dst.rows, dst.cols)
	}
	if dst == a || dst == b {
		return fmt.Errorf("mat: dst is also an operand")
	}
	return nil
}

// Transpose returns m^T.
func (m *Dense) Transpose() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Add returns a+b.
func Add(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("mat: cannot add %dx%d and %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out, nil
}

// Sub returns a-b.
func Sub(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("mat: cannot subtract %dx%d and %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out, nil
}

// Scale multiplies every element in place and returns m for chaining.
func (m *Dense) Scale(f float64) *Dense {
	for i := range m.data {
		m.data[i] *= f
	}
	return m
}

// Apply replaces every element with fn(element) in place and returns m.
func (m *Dense) Apply(fn func(float64) float64) *Dense {
	for i := range m.data {
		m.data[i] = fn(m.data[i])
	}
	return m
}

// AddRowVector adds vector v to every row in place; len(v) must equal Cols.
func (m *Dense) AddRowVector(v []float64) error {
	if len(v) != m.cols {
		return fmt.Errorf("mat: vector length %d != cols %d", len(v), m.cols)
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
	return nil
}

// Solve solves the linear system a*x = b for x using Gaussian elimination
// with partial pivoting; a must be square. It returns an error for singular
// systems. a and b are not modified.
func Solve(a, b *Dense) (*Dense, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: Solve needs square matrix, got %dx%d", a.rows, a.cols)
	}
	if b.rows != n {
		return nil, fmt.Errorf("mat: rhs has %d rows, want %d", b.rows, n)
	}
	// Augment copies.
	aw := a.Clone()
	x := b.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(aw.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aw.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("mat: singular matrix (pivot %d)", col)
		}
		if pivot != col {
			swapRows(aw, pivot, col)
			swapRows(x, pivot, col)
		}
		pv := aw.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aw.At(r, col) / pv
			if f == 0 {
				continue
			}
			arow := aw.Row(r)
			prow := aw.Row(col)
			for j := col; j < n; j++ {
				arow[j] -= f * prow[j]
			}
			xrow := x.Row(r)
			xp := x.Row(col)
			for j := range xrow {
				xrow[j] -= f * xp[j]
			}
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		pv := aw.At(col, col)
		xrow := x.Row(col)
		for j := range xrow {
			xrow[j] /= pv
		}
		for r := 0; r < col; r++ {
			f := aw.At(r, col)
			if f == 0 {
				continue
			}
			xr := x.Row(r)
			for j := range xr {
				xr[j] -= f * xrow[j]
			}
		}
	}
	return x, nil
}

func swapRows(m *Dense, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// ColumnStats returns per-column means and standard deviations (population
// form). Columns with zero variance get std 1 so standardization is a
// no-op for them.
func ColumnStats(m *Dense) (means, stds []float64) {
	means = make([]float64, m.cols)
	stds = make([]float64, m.cols)
	if m.rows == 0 {
		for j := range stds {
			stds[j] = 1
		}
		return means, stds
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	n := float64(m.rows)
	for j := range means {
		means[j] /= n
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			d := v - means[j]
			stds[j] += d * d
		}
	}
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] / n)
		if stds[j] < 1e-12 {
			stds[j] = 1
		}
	}
	return means, stds
}

// Standardize returns (m - means) / stds computed column-wise, leaving m
// unmodified.
func Standardize(m *Dense, means, stds []float64) (*Dense, error) {
	if len(means) != m.cols || len(stds) != m.cols {
		return nil, fmt.Errorf("mat: stats length mismatch")
	}
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = (row[j] - means[j]) / stds[j]
		}
	}
	return out, nil
}
