package lp

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

// This file keeps the package's first simplex and its first LP
// rounding as test oracles for Workspace.Solve and Session.Placement,
// which are what the package runs. The oracle simplex reads a dense
// row-major problem, copies and normalises every row, and sweeps whole
// tableau rows in every pivot; the package's simplex writes the
// tableau from sparse rows and updates only the pivot row's nonzero
// columns. Both pivot the same way, so their answers agree bit for bit
// up to the sign of zero entries.

// denseProblem is min C·x subject to the rows (A[i]·x <kind[i]> B[i]),
// x ≥ 0.
type denseProblem struct {
	C    []float64
	A    [][]float64
	B    []float64
	Kind []RowKind
}

// toDense expands a sparse problem into its dense rows. A column
// listed twice in a row adds its values, as Workspace.Solve does.
func toDense(p *Problem) *denseProblem {
	d := &denseProblem{C: p.C, B: p.B, Kind: p.Kind, A: make([][]float64, len(p.B))}
	for i := range d.A {
		d.A[i] = make([]float64, len(p.C))
		for k := p.Start[i]; k < p.Start[i+1]; k++ {
			d.A[i][p.Col[k]] += p.Val[k]
		}
	}
	return d
}

// fromDense packs dense rows into a sparse problem, keeping every
// nonzero coefficient.
func fromDense(d *denseProblem) *Problem {
	p := &Problem{C: d.C, Start: []int{0}}
	for i, row := range d.A {
		for j, v := range row {
			if v != 0 {
				p.Col = append(p.Col, j)
				p.Val = append(p.Val, v)
			}
		}
		p.endRow(d.B[i], d.Kind[i])
	}
	return p
}

// refWorkspace is the oracle's dense working memory.
type refWorkspace struct {
	a      []float64 // normalized rows, flat m×n
	b      []float64
	kind   []RowKind
	tabBuf []float64   // (m+1)×(total+1) tableau backing
	tab    [][]float64 // row headers into tabBuf
	basis  []int
	x      []float64
}

// referenceSolve runs two-phase simplex with Bland's rule on a fresh
// dense workspace and returns an optimal solution and its objective
// value.
func referenceSolve(p *denseProblem) ([]float64, float64, error) {
	var w refWorkspace
	return w.Solve(p)
}

func (w *refWorkspace) Solve(p *denseProblem) ([]float64, float64, error) {
	n := len(p.C)
	m := len(p.A)
	if len(p.B) != m || len(p.Kind) != m {
		return nil, 0, fmt.Errorf("lp: inconsistent problem dimensions")
	}
	for i := range p.A {
		if len(p.A[i]) != n {
			return nil, 0, fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(p.A[i]), n)
		}
	}

	// Normalise to b ≥ 0.
	w.a = growFloats(w.a, m*n)
	w.b = growFloats(w.b, m)
	if cap(w.kind) < m {
		w.kind = make([]RowKind, m)
	}
	w.kind = w.kind[:m]
	b, kind := w.b, w.kind
	for i := 0; i < m; i++ {
		row := w.a[i*n : (i+1)*n]
		copy(row, p.A[i])
		b[i] = p.B[i]
		kind[i] = p.Kind[i]
		if b[i] < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			b[i] = -b[i]
			switch kind[i] {
			case LE:
				kind[i] = GE
			case GE:
				kind[i] = LE
			}
		}
	}

	// Column layout: n structural | slacks/surplus | artificials.
	extra := 0
	for i := 0; i < m; i++ {
		if kind[i] != EQ {
			extra++
		}
	}
	art := 0
	for i := 0; i < m; i++ {
		if kind[i] != LE {
			art++
		}
	}
	total := n + extra + art
	stride := total + 1
	w.tabBuf = growFloats(w.tabBuf, (m+1)*stride)
	clear(w.tabBuf)
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
	se, ai := n, n+extra
	for i := 0; i < m; i++ {
		copy(tab[i], w.a[i*n:(i+1)*n])
		tab[i][total] = b[i]
		switch kind[i] {
		case LE:
			tab[i][se] = 1
			basis[i] = se
			se++
		case GE:
			tab[i][se] = -1
			se++
			tab[i][ai] = 1
			basis[i] = ai
			ai++
		case EQ:
			tab[i][ai] = 1
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
		if err := refIterate(tab, basis, total); err != nil {
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
					refPivot(tab, basis, i, j, total)
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
	if err := refIterate(tab, basis, total); err != nil {
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

// refIterate runs simplex pivots (Bland's rule) until optimal.
func refIterate(tab [][]float64, basis []int, total int) error {
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
		refPivot(tab, basis, row, col, total)
	}
	return errors.New("lp: iteration limit exceeded")
}

func refPivot(tab [][]float64, basis []int, row, col, total int) {
	pr := tab[row]
	pv := pr[col]
	for j := 0; j <= total; j++ {
		pr[j] /= pv
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if math.Abs(f) <= eps {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * pr[j]
		}
	}
	basis[row] = col
}

// referencePlacement is the first LP-rounding body, the oracle for
// Session.Placement: it solves the relaxation with the dense oracle
// simplex, sorts the fractional support with the unstable sort.Slice,
// and prunes and assigns through the allocating exact.MultipleFeasible
// and exact.MultipleAssignment instead of the session's recycled flow
// network.
func referencePlacement(in *core.Instance) (*core.Solution, error) {
	const eps = 1e-7
	p, servers, nx, err := buildPlacement(in)
	if err != nil {
		return nil, err
	}
	if p == nil { // no requests: the empty solution is optimal
		sol := &core.Solution{}
		sol.Normalize()
		return sol, nil
	}
	x, _, err := referenceSolve(toDense(p))
	if err != nil {
		return nil, fmt.Errorf("lp: placement relaxation: %w", err)
	}

	type frac struct {
		s tree.NodeID
		y float64
	}
	var support []frac
	for si, s := range servers {
		if x[nx+si] > eps {
			support = append(support, frac{s, x[nx+si]})
		}
	}
	// Prune least-fractional replicas first: a server the LP barely
	// opened is the one integral capacities most likely cover.
	sort.Slice(support, func(a, b int) bool {
		if support[a].y != support[b].y {
			return support[a].y < support[b].y
		}
		return support[a].s < support[b].s
	})
	R := make([]tree.NodeID, len(support))
	for i, f := range support {
		R[i] = f.s
	}
	if !exact.MultipleFeasible(in, R) {
		// Numerically truncated support (y_s ≤ eps dropped): fall back
		// to every candidate server and let pruning shrink it.
		R = append([]tree.NodeID{}, servers...)
		if !exact.MultipleFeasible(in, R) {
			return nil, fmt.Errorf("lp: instance infeasible under the Multiple policy")
		}
	}
	for i := 0; i < len(R); {
		trial := make([]tree.NodeID, 0, len(R)-1)
		trial = append(trial, R[:i]...)
		trial = append(trial, R[i+1:]...)
		if exact.MultipleFeasible(in, trial) {
			R = trial
		} else {
			i++
		}
	}
	sol, err := exact.MultipleAssignment(in, R)
	if err != nil {
		return nil, fmt.Errorf("lp: assignment on rounded support: %w", err)
	}
	return sol, nil
}
