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
// (one flat backing array), the basis, the pivot row's nonzero columns
// and the result vector. A zero Workspace is ready to use; re-solving
// a same-shape problem on a warmed Workspace performs zero heap
// allocations. The solution slice returned by Workspace.Solve is owned
// by the workspace and valid until its next Solve. A Workspace is not
// safe for concurrent use.
type Workspace struct {
	tabBuf []float64   // (m+1)×(total+1) tableau backing
	tab    [][]float64 // row headers into tabBuf
	basis  []int
	nz     []int // the current pivot row's nonzero columns
	x      []float64
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
// work on zero entries is skipped — a pivot updates just the pivot
// row's nonzero columns — which can change the sign of a zero entry
// and nothing else: no comparison, ratio, division or nonzero value
// depends on that sign.
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
	if size := (m + 1) * stride; cap(w.tabBuf) < size {
		w.tabBuf = make([]float64, size)
	} else {
		w.tabBuf = w.tabBuf[:size]
		clear(w.tabBuf)
	}
	if cap(w.tab) < m+1 {
		w.tab = make([][]float64, m+1)
	}
	w.tab = w.tab[:m+1]
	tab := w.tab
	for i := range tab {
		tab[i] = w.tabBuf[i*stride : (i+1)*stride]
	}
	if cap(w.basis) < m {
		w.basis = make([]int, m)
	}
	w.basis = w.basis[:m]
	basis := w.basis
	// Write each row normalised to b ≥ 0: a row with b < 0 is negated
	// as it is written.
	se, ai := n, n+extra
	for i := 0; i < m; i++ {
		row := tab[i]
		b := p.B[i]
		if b < 0 {
			for k := p.Start[i]; k < p.Start[i+1]; k++ {
				row[p.Col[k]] -= p.Val[k]
			}
			b = -b
		} else {
			for k := p.Start[i]; k < p.Start[i+1]; k++ {
				row[p.Col[k]] += p.Val[k]
			}
		}
		row[total] = b
		switch normKind(p.Kind[i], p.B[i]) {
		case LE:
			row[se] = 1
			basis[i] = se
			se++
		case GE:
			row[se] = -1
			se++
			row[ai] = 1
			basis[i] = ai
			ai++
		case EQ:
			row[ai] = 1
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
				for j := 0; j <= total; j++ {
					obj[j] -= tab[i][j]
				}
			}
		}
		if err := w.iterate(total); err != nil {
			return nil, 0, err
		}
		if tab[m][total] < -eps {
			return nil, 0, ErrInfeasible
		}
		// Drive artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if basis[i] < n+extra {
				continue
			}
			for j := 0; j < n+extra; j++ {
				if math.Abs(tab[i][j]) > eps {
					w.pivot(i, j, total)
					break
				}
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
	for i := 0; i < m; i++ {
		for j := n + extra; j < total; j++ {
			tab[i][j] = 0
		}
	}
	// Price out the basis.
	for i := 0; i < m; i++ {
		bj := basis[i]
		if bj < len(obj)-1 && math.Abs(obj[bj]) > eps {
			f := obj[bj]
			for j := 0; j <= total; j++ {
				obj[j] -= f * tab[i][j]
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

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// iterate runs simplex pivots (Bland's rule) until optimal.
func (w *Workspace) iterate(total int) error {
	tab, basis := w.tab, w.basis
	m := len(tab) - 1
	for iter := 0; iter < 50000; iter++ {
		// Entering column: smallest index with negative reduced cost.
		col := -1
		for j := 0; j < total; j++ {
			if tab[m][j] < -eps {
				col = j
				break
			}
		}
		if col < 0 {
			return nil
		}
		// Leaving row: min ratio, ties by smallest basis index.
		row := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][col] > eps {
				r := tab[i][total] / tab[i][col]
				if r < best-eps || (r < best+eps && (row < 0 || basis[i] < basis[row])) {
					best = r
					row = i
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
// its nonzero columns in one pass; every other row with a coefficient
// above eps in col is then updated on those columns only.
func (w *Workspace) pivot(row, col, total int) {
	pr := w.tab[row]
	pv := pr[col]
	nz := w.nz[:0]
	for j := 0; j <= total; j++ {
		if pr[j] != 0 {
			pr[j] /= pv
			nz = append(nz, j)
		}
	}
	w.nz = nz
	for i, ti := range w.tab {
		if i == row {
			continue
		}
		f := ti[col]
		if math.Abs(f) <= eps {
			continue
		}
		for _, j := range nz {
			ti[j] -= f * pr[j]
		}
	}
	w.basis[row] = col
}
