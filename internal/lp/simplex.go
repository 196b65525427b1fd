// Package lp implements a small two-phase simplex solver — a dense
// tableau written from sparse rows, pivoted on nonzeros only — and, on
// top of it, the fractional relaxation of the replica placement
// problem. The LP optimum rounds up to a lower bound on the integer
// optimum that is often stronger than the volume bound and
// incomparable with the combinatorial bound — experiment E11 measures
// all of them.
package lp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// RowKind classifies a constraint row.
type RowKind uint8

const (
	LE RowKind = iota // a·x ≤ b
	GE                // a·x ≥ b
	EQ                // a·x = b
)

// Problem is min C·x subject to the rows (A_i·x <Kind[i]> B[i]),
// x ≥ 0. The constraint matrix A is stored by rows in compressed
// sparse form: row i's coefficients are Val[Start[i]:Start[i+1]], in
// the columns Col[Start[i]:Start[i+1]]. Start has one entry per row
// plus a final one, and starts at 0. A column listed twice in a row
// adds its values.
type Problem struct {
	C     []float64
	Start []int
	Col   []int
	Val   []float64
	B     []float64
	Kind  []RowKind
}

// endRow closes the row whose coefficients were appended to Col and
// Val since the previous row. Start must already hold its leading 0.
func (p *Problem) endRow(b float64, k RowKind) {
	p.Start = append(p.Start, len(p.Col))
	p.B = append(p.B, b)
	p.Kind = append(p.Kind, k)
}

// ErrInfeasible is returned when no feasible point exists.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded is returned when the objective is unbounded below.
var ErrUnbounded = errors.New("lp: unbounded")

const eps = 1e-9

// Workspace owns the working memory of the simplex: the dense tableau
// (one flat backing array), its nonzero index, the basis, the pivot
// row's nonzero columns and the result vector. A zero Workspace is
// ready to use; re-solving a same-shape problem on a warmed Workspace
// performs zero heap allocations. The solution slice returned by
// Workspace.Solve is owned by the workspace and valid until its next
// Solve. A Workspace is not safe for concurrent use.
//
// The nonzero index is a superset of the tableau's nonzero entries
// below the objective row, kept two ways: rowBits holds a bitset of
// columns (the right-hand side included) per row, colBits a bitset of
// rows per column. Writing a row seeds it, and a pivot ORs the pivot
// row's bits into every row it updates. m and stride are the shape of
// the tableau last written: the next Solve zeroes only the entries the
// index marks, plus the objective row, instead of the whole buffer.
type Workspace struct {
	tabBuf  []float64   // (m+1)×stride tableau backing
	tab     [][]float64 // row headers into tabBuf
	rowBits []uint64    // m×rw: row i's possibly-nonzero columns
	colBits []uint64    // stride×cw: column j's possibly-nonzero rows
	rw, cw  int         // words per row bitset, per column bitset
	m       int         // rows below the objective of the last tableau
	stride  int         // its row length, right-hand side included
	neg     []uint64    // rw words: objective columns with reduced cost < −eps
	basis   []int
	nz      []int // the current pivot row's nonzero columns
	x       []float64
}

// Solve runs two-phase simplex with Bland's rule and returns an
// optimal solution and its objective value. It is the throwaway
// entry point: each call uses a fresh Workspace, so the returned
// slice is the caller's.
func Solve(p *Problem) ([]float64, float64, error) {
	var w Workspace
	return w.Solve(p)
}

// normKind is the kind of a row after it is negated to make b ≥ 0.
func normKind(k RowKind, b float64) RowKind {
	if b < 0 {
		switch k {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return k
}

// Solve is the warm entry point: identical arithmetic to the
// package-level Solve (bit-for-bit — the operations run in the same
// order on the same values), reusing the workspace's buffers.
//
// The pivot sequence is the one a dense simplex takes: Bland's rule,
// the ratio test with its eps tie-break, the same row order. Only
// work on zero entries is skipped — the ratio test and a pivot visit
// just the rows the entering column's index marks, and a pivot
// updates just the pivot row's nonzero columns — which can change the
// sign of a zero entry and nothing else: no comparison, ratio,
// division or nonzero value depends on that sign.
func (w *Workspace) Solve(p *Problem) ([]float64, float64, error) {
	n := len(p.C)
	m := len(p.B)
	if len(p.Kind) != m || len(p.Start) != m+1 || p.Start[0] != 0 ||
		p.Start[m] != len(p.Col) || len(p.Val) != len(p.Col) {
		return nil, 0, fmt.Errorf("lp: inconsistent problem dimensions")
	}
	for i := 0; i < m; i++ {
		if p.Start[i] > p.Start[i+1] {
			return nil, 0, fmt.Errorf("lp: row %d ends before it starts", i)
		}
	}
	for _, j := range p.Col {
		if j < 0 || j >= n {
			return nil, 0, fmt.Errorf("lp: column %d out of range, want < %d", j, n)
		}
	}

	// Column layout: n structural | slacks/surplus | artificials.
	extra, art := 0, 0
	for i := 0; i < m; i++ {
		k := normKind(p.Kind[i], p.B[i])
		if k != EQ {
			extra++
		}
		if k != LE {
			art++
		}
	}
	total := n + extra + art
	stride := total + 1
	w.reset(m, stride)
	tab, basis := w.tab, w.basis
	// Write each row normalised to b ≥ 0: a row with b < 0 is negated
	// as it is written.
	se, ai := n, n+extra
	for i := 0; i < m; i++ {
		row := tab[i]
		b := p.B[i]
		if b < 0 {
			for k := p.Start[i]; k < p.Start[i+1]; k++ {
				row[p.Col[k]] -= p.Val[k]
				w.mark(i, p.Col[k])
			}
			b = -b
		} else {
			for k := p.Start[i]; k < p.Start[i+1]; k++ {
				row[p.Col[k]] += p.Val[k]
				w.mark(i, p.Col[k])
			}
		}
		row[total] = b
		w.mark(i, total)
		switch normKind(p.Kind[i], p.B[i]) {
		case LE:
			row[se] = 1
			w.mark(i, se)
			basis[i] = se
			se++
		case GE:
			row[se] = -1
			w.mark(i, se)
			se++
			row[ai] = 1
			w.mark(i, ai)
			basis[i] = ai
			ai++
		case EQ:
			row[ai] = 1
			w.mark(i, ai)
			basis[i] = ai
			ai++
		}
	}

	// Phase 1: minimise the sum of artificials.
	if art > 0 {
		obj := tab[m]
		for j := n + extra; j < total; j++ {
			obj[j] = 1
		}
		// Price out the artificial basis.
		for i := 0; i < m; i++ {
			if basis[i] >= n+extra {
				ti := tab[i]
				for k, word := range w.rowBits[i*w.rw : (i+1)*w.rw] {
					for ; word != 0; word &= word - 1 {
						j := k<<6 | bits.TrailingZeros64(word)
						obj[j] -= ti[j]
					}
				}
			}
		}
		if err := w.iterate(total); err != nil {
			return nil, 0, err
		}
		if tab[m][total] < -eps {
			return nil, 0, ErrInfeasible
		}
		// Drive artificials out of the basis where possible: pivot on
		// the row's first column below n+extra that exceeds eps.
		for i := 0; i < m; i++ {
			if basis[i] < n+extra {
				continue
			}
			if j := w.firstAbove(i, n+extra); j >= 0 {
				w.pivot(i, j, total)
			}
		}
	}

	// Phase 2: restore the real objective.
	obj := tab[m]
	for j := range obj {
		obj[j] = 0
	}
	for j := 0; j < n; j++ {
		obj[j] = p.C[j]
	}
	// Block artificial columns.
	for j := n + extra; j < total; j++ {
		cb := w.colBits[j*w.cw : (j+1)*w.cw]
		for k, word := range cb {
			for ; word != 0; word &= word - 1 {
				tab[k<<6|bits.TrailingZeros64(word)][j] = 0
			}
		}
		clear(cb)
	}
	// Price out the basis.
	for i := 0; i < m; i++ {
		bj := basis[i]
		if bj < len(obj)-1 && math.Abs(obj[bj]) > eps {
			f := obj[bj]
			ti := tab[i]
			for k, word := range w.rowBits[i*w.rw : (i+1)*w.rw] {
				for ; word != 0; word &= word - 1 {
					j := k<<6 | bits.TrailingZeros64(word)
					obj[j] -= f * ti[j]
				}
			}
		}
	}
	if err := w.iterate(total); err != nil {
		return nil, 0, err
	}

	w.x = growFloats(w.x, n)
	clear(w.x)
	x := w.x
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = tab[i][total]
		}
	}
	return x, -tab[m][total], nil
}

// reset readies a zero m×stride tableau (plus its objective row), an
// empty nonzero index and the basis. A buffer that is reused is zeroed
// only where the previous tableau's index marks an entry and in its
// objective row: every entry outside those is still zero.
func (w *Workspace) reset(m, stride int) {
	size := (m + 1) * stride
	if cap(w.tabBuf) < size {
		w.tabBuf = make([]float64, size)
	} else {
		for i := 0; i < w.m; i++ {
			row := w.tabBuf[i*w.stride:]
			for k, word := range w.rowBits[i*w.rw : (i+1)*w.rw] {
				for ; word != 0; word &= word - 1 {
					row[k<<6|bits.TrailingZeros64(word)] = 0
				}
			}
		}
		clear(w.tabBuf[w.m*w.stride : (w.m+1)*w.stride])
		w.tabBuf = w.tabBuf[:size]
	}
	w.m, w.stride = m, stride
	w.rw, w.cw = (stride+63)/64, (m+63)/64
	w.rowBits = growWords(w.rowBits, m*w.rw)
	w.colBits = growWords(w.colBits, stride*w.cw)
	w.neg = growWords(w.neg, w.rw)
	if cap(w.tab) < m+1 {
		w.tab = make([][]float64, m+1)
	}
	w.tab = w.tab[:m+1]
	for i := range w.tab {
		w.tab[i] = w.tabBuf[i*stride : (i+1)*stride]
	}
	if cap(w.basis) < m {
		w.basis = make([]int, m)
	}
	w.basis = w.basis[:m]
}

// growWords returns a zeroed slice of n words, reusing s's array.
func growWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// mark records that entry (i, j) below the objective row may be
// nonzero.
func (w *Workspace) mark(i, j int) {
	w.rowBits[i*w.rw+j>>6] |= 1 << (j & 63)
	w.colBits[j*w.cw+i>>6] |= 1 << (i & 63)
}

// firstAbove returns row i's first column below end whose entry
// exceeds eps in absolute value, or -1.
func (w *Workspace) firstAbove(i, end int) int {
	ti := w.tab[i]
	for k, word := range w.rowBits[i*w.rw : (i+1)*w.rw] {
		for ; word != 0; word &= word - 1 {
			j := k<<6 | bits.TrailingZeros64(word)
			if j >= end {
				return -1
			}
			if math.Abs(ti[j]) > eps {
				return j
			}
		}
	}
	return -1
}

// iterate runs simplex pivots (Bland's rule) until optimal.
func (w *Workspace) iterate(total int) error {
	tab, basis := w.tab, w.basis
	m := len(tab) - 1
	obj := tab[m]
	clear(w.neg)
	for j := 0; j < total; j++ {
		if obj[j] < -eps {
			w.neg[j>>6] |= 1 << (j & 63)
		}
	}
	for iter := 0; iter < 50000; iter++ {
		// Entering column: smallest index with negative reduced cost.
		col := -1
		for k, word := range w.neg {
			if word != 0 {
				col = k<<6 | bits.TrailingZeros64(word)
				break
			}
		}
		if col < 0 || col >= total {
			return nil
		}
		// Leaving row: min ratio, ties by smallest basis index, over
		// the rows the column's index marks, in increasing order. An
		// entry found zero is dropped from the index.
		row := -1
		best := math.Inf(1)
		cb := w.colBits[col*w.cw : (col+1)*w.cw]
		for k, word := range cb {
			for ; word != 0; word &= word - 1 {
				t := bits.TrailingZeros64(word)
				i := k<<6 | t
				v := tab[i][col]
				if v > eps {
					r := tab[i][total] / v
					if r < best-eps || (r < best+eps && (row < 0 || basis[i] < basis[row])) {
						best = r
						row = i
					}
				} else if v == 0 {
					cb[k] &^= 1 << t
				}
			}
		}
		if row < 0 {
			return ErrUnbounded
		}
		w.pivot(row, col, total)
	}
	return errors.New("lp: iteration limit exceeded")
}

// pivot makes col basic in row. It divides the pivot row and records
// its nonzero columns in one pass over the row's index; every other
// row the column's index marks, then the objective row, is updated on
// those columns only if its coefficient in col exceeds eps. The
// objective's updated columns are re-priced into neg.
func (w *Workspace) pivot(row, col, total int) {
	pr := w.tab[row]
	pv := pr[col]
	nz := w.nz[:0]
	rb := w.rowBits[row*w.rw : (row+1)*w.rw]
	for k, word := range rb {
		keep := uint64(0)
		for ; word != 0; word &= word - 1 {
			t := bits.TrailingZeros64(word)
			j := k<<6 | t
			if pr[j] != 0 {
				pr[j] /= pv
				nz = append(nz, j)
				keep |= 1 << t
			}
		}
		rb[k] = keep
	}
	w.nz = nz
	cw := w.cw
	for k, word := range w.colBits[col*cw : (col+1)*cw] {
		for ; word != 0; word &= word - 1 {
			t := bits.TrailingZeros64(word)
			i := k<<6 | t
			if i == row {
				continue
			}
			ti := w.tab[i]
			f := ti[col]
			if math.Abs(f) <= eps {
				continue
			}
			bit := uint64(1) << t
			for _, j := range nz {
				ti[j] -= f * pr[j]
				w.colBits[j*cw+k] |= bit
			}
			for x, b := range rb {
				w.rowBits[i*w.rw+x] |= b
			}
		}
	}
	obj := w.tab[len(w.tab)-1]
	if f := obj[col]; math.Abs(f) > eps {
		for _, j := range nz {
			obj[j] -= f * pr[j]
			if obj[j] < -eps {
				w.neg[j>>6] |= 1 << (j & 63)
			} else {
				w.neg[j>>6] &^= 1 << (j & 63)
			}
		}
	}
	w.basis[row] = col
}
