package solver

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

// nodInstance / withDistanceInstance live in batch_test.go; this file
// covers the engine contract: capabilities, sentinel errors, request
// constraints and the report block.

// TestCapabilitiesPinned pins every built-in engine's declared
// capability document: the policy is always an explicit field, never a
// silent fallback.
func TestCapabilitiesPinned(t *testing.T) {
	want := map[string]Capabilities{
		SingleGen:      {Policy: core.Single, SupportsDMax: true, Cost: CostPolynomial},
		SingleNoD:      {Policy: core.Single, Cost: CostPolynomial},
		SinglePassUp:   {Policy: core.Single, Cost: CostPolynomial},
		SingleBest:     {Policy: core.Single, Cost: CostPolynomial},
		SinglePushUp:   {Policy: core.Single, Cost: CostPolynomial},
		MultipleBin:    {Policy: core.Multiple, SupportsDMax: true, Cost: CostPolynomial},
		MultipleLazy:   {Policy: core.Multiple, SupportsDMax: true, Cost: CostPolynomial},
		MultipleBest:   {Policy: core.Multiple, SupportsDMax: true, Cost: CostPolynomial},
		MultipleGreedy: {Policy: core.Multiple, SupportsDMax: true, Cost: CostPolynomial},
		MultipleReplan: {Policy: core.Multiple, SupportsDMax: true, Cost: CostPolynomial, Delta: true},
		ExactSingle:    {Policy: core.Single, Exact: true, SupportsDMax: true, Cost: CostExponential},
		ExactMultiple:  {Policy: core.Multiple, Exact: true, SupportsDMax: true, Cost: CostExponential},
		LPRound:        {Policy: core.Multiple, SupportsDMax: true, Cost: CostPolynomial},
		Auto:           {Policy: core.Multiple, SupportsDMax: true, Cost: CostPolynomial},
		// Registered by internal/decomp (linked into this test binary
		// through the external route_decomp_test.go file).
		Decomp: {Policy: core.Multiple, SupportsDMax: true, Cost: CostPolynomial},
	}
	for name, w := range want {
		eng, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := eng.Capabilities()
		if c.Name != name {
			t.Errorf("%s: capabilities name %q", name, c.Name)
		}
		if c.Policy != w.Policy || c.Exact != w.Exact || c.SupportsDMax != w.SupportsDMax ||
			c.Cost != w.Cost || c.Delta != w.Delta {
			t.Errorf("%s: capabilities %+v, want policy=%v exact=%v dmax=%v cost=%v delta=%v",
				name, c, w.Policy, w.Exact, w.SupportsDMax, w.Cost, w.Delta)
		}
		if c.Description == "" {
			t.Errorf("%s: empty description", name)
		}
	}
	// The pin table must cover the whole built-in registry:
	// registering a new engine without pinning it here is an error
	// (sibling tests register throwaway "test-…" solvers, which are
	// exempt).
	for _, name := range List() {
		if _, ok := want[name]; !ok && !strings.HasPrefix(name, "test-") {
			t.Errorf("engine %q registered but not pinned here", name)
		}
	}
}

func TestLookupUnknownSolverSentinel(t *testing.T) {
	_, err := Lookup("no-such-solver")
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("Lookup error %v does not wrap ErrUnknownSolver", err)
	}
	if !strings.Contains(err.Error(), SingleGen) {
		t.Errorf("error should list the known set: %v", err)
	}
}

func TestNoDGateSentinelAndLegacyText(t *testing.T) {
	in := withDistanceInstance(t)
	_, err := MustLookup(SingleNoD).Solve(context.Background(), Request{Instance: in})
	if !errors.Is(err, ErrPolicyUnsupported) {
		t.Fatalf("NoD gate error %v does not wrap ErrPolicyUnsupported", err)
	}
	// The rendered message names the engine and the finite dmax; the
	// /v2 problem detail carries it verbatim.
	want := "solver single-nod: requires a NoD instance (dmax=" // …d is finite)
	if !strings.HasPrefix(err.Error(), want) {
		t.Errorf("gate text changed: %q", err.Error())
	}
}

func TestPolicyConstraintSentinel(t *testing.T) {
	in := nodInstance(t)
	_, err := MustLookup(MultipleBin).Solve(context.Background(), Request{Instance: in, Policy: WantSingle})
	if !errors.Is(err, ErrPolicyUnsupported) {
		t.Fatalf("policy constraint error %v does not wrap ErrPolicyUnsupported", err)
	}
	// WantMultiple admits Single engines: their solutions never split
	// a client, so they are Multiple-feasible by construction.
	rep, err := MustLookup(SingleGen).Solve(context.Background(), Request{Instance: in, Policy: WantMultiple})
	if err != nil {
		t.Fatalf("WantMultiple rejected a Single engine: %v", err)
	}
	if err := core.Verify(in, core.Multiple, rep.Solution); err != nil {
		t.Errorf("Single solution failed Multiple verification: %v", err)
	}
}

// infeasibleInstance builds a one-client instance whose requests
// exceed every capacity reachable within dmax: infeasible under both
// policies.
func infeasibleInstance(t *testing.T) *core.Instance {
	t.Helper()
	b := tree.NewBuilder()
	root := b.Root("root")
	b.Client(root, 5, 10, "c") // distance 5 > dmax 1, r=10 > W
	return &core.Instance{Tree: b.MustBuild(), W: 3, DMax: 1}
}

func TestInfeasibleSentinel(t *testing.T) {
	in := infeasibleInstance(t)
	for _, name := range []string{SingleGen, MultipleGreedy, ExactMultiple, Auto} {
		_, err := MustLookup(name).Solve(context.Background(), Request{Instance: in})
		if err == nil {
			t.Fatalf("%s solved an infeasible instance", name)
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s error %v does not wrap ErrInfeasible", name, err)
		}
	}
}

func TestRequestBudgetStarvesExact(t *testing.T) {
	in := nodInstance(t)
	_, err := MustLookup(ExactMultiple).Solve(context.Background(), Request{Instance: in, Budget: 1})
	if !errors.Is(err, exact.ErrBudget) {
		t.Fatalf("starvation budget: err = %v, want exact.ErrBudget", err)
	}
	// A budget failure on a feasible instance must NOT read as
	// infeasibility.
	if errors.Is(err, ErrInfeasible) {
		t.Error("budget exhaustion mis-tagged as ErrInfeasible")
	}
}

func TestReportBlock(t *testing.T) {
	in := nodInstance(t)
	rep, err := MustLookup(ExactSingle).Solve(context.Background(), Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != ExactSingle || rep.Policy != core.Single {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if !rep.Proved {
		t.Error("exact engine did not mark its solution proved")
	}
	if rep.Work <= 0 {
		t.Errorf("exact engine reported no work: %d", rep.Work)
	}
	if rep.LowerBound != core.LowerBound(in) {
		t.Errorf("lower bound %d, core says %d", rep.LowerBound, core.LowerBound(in))
	}
	wantGap := float64(rep.Solution.NumReplicas()-rep.LowerBound) / float64(rep.LowerBound)
	if rep.LowerBound > 0 && rep.Gap != wantGap {
		t.Errorf("gap %v, want %v", rep.Gap, wantGap)
	}
	if rep.Elapsed <= 0 {
		t.Error("report missing elapsed time")
	}

	// NoBound suppresses the bound block only.
	rep2, err := MustLookup(SingleGen).Solve(context.Background(),
		Request{Instance: in, NoBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.LowerBound != 0 || rep2.Gap != 0 {
		t.Errorf("NoBound did not suppress the bound block: %+v", rep2)
	}
	if rep2.Solution == nil {
		t.Error("NoBound suppressed the solution too")
	}
}

func TestRequestDeadline(t *testing.T) {
	in := nodInstance(t)
	_, err := MustLookup(SingleGen).Solve(context.Background(),
		Request{Instance: in, Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}
}

// TestDeltaEngineContract pins the delta seam: multiple-replan adapts
// Request.Previous (reporting churn), honours Request.Exclude, and
// every non-delta engine rejects Exclude with a typed error instead of
// silently placing on a failed server.
func TestDeltaEngineContract(t *testing.T) {
	ctx := context.Background()
	in := nodInstance(t)
	eng := MustLookup(MultipleReplan)
	if !eng.Capabilities().Delta {
		t.Fatal("multiple-replan does not declare Delta")
	}

	// From nothing: a plain feasible build-up, churn all-additions.
	rep, err := eng.Solve(ctx, Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(in, core.Multiple, rep.Solution); err != nil {
		t.Fatalf("replan-from-empty infeasible: %v", err)
	}
	if rep.Churn == nil || len(rep.Churn.Added) != rep.Solution.NumReplicas() || len(rep.Churn.Removed) != 0 {
		t.Fatalf("replan-from-empty churn %+v, want all-added", rep.Churn)
	}

	// From itself: zero placement churn.
	rep2, err := eng.Solve(ctx, Request{Instance: in, Previous: rep.Solution})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Churn == nil || len(rep2.Churn.Added) != 0 || len(rep2.Churn.Removed) != 0 {
		t.Errorf("replan-from-self churn %+v, want none", rep2.Churn)
	}

	// Excluding a current replica forces it out of the new placement.
	down := rep.Solution.Replicas[0]
	rep3, err := eng.Solve(ctx, Request{Instance: in, Previous: rep.Solution, Exclude: []tree.NodeID{down}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep3.Solution.Replicas {
		if r == down {
			t.Fatalf("excluded server %d still hosts a replica", down)
		}
	}
	if err := core.Verify(in, core.Multiple, rep3.Solution); err != nil {
		t.Fatalf("replan-with-exclusion infeasible: %v", err)
	}

	// Non-delta engines (the portfolio included) must reject Exclude,
	// typed.
	for _, name := range []string{MultipleBest, SingleGen, ExactMultiple, Auto} {
		_, err := MustLookup(name).Solve(ctx, Request{Instance: in, Exclude: []tree.NodeID{down}})
		if !errors.Is(err, ErrPolicyUnsupported) {
			t.Errorf("%s accepted Exclude: err = %v", name, err)
		}
	}
}

// TestBatchReportsFlow pins that Batch fills the full Report on every
// result.
func TestBatchReportsFlow(t *testing.T) {
	in := nodInstance(t)
	tasks := []Task{{ID: "t", Engine: MustLookup(MultipleBest), Request: Request{Instance: in}}}
	results, st := Batch(context.Background(), tasks, Options{})
	if st.Solved != 1 {
		t.Fatalf("stats %+v", st)
	}
	r := results[0]
	if r.Report.Solution == nil {
		t.Fatalf("task %s: no solution in report: %+v", r.Task.ID, r)
	}
	if r.Report.Engine != MultipleBest {
		t.Errorf("task %s: report engine %q", r.Task.ID, r.Report.Engine)
	}
	if st.Replicas != r.Report.Solution.NumReplicas() {
		t.Errorf("stats replicas %d, report says %d", st.Replicas, r.Report.Solution.NumReplicas())
	}
}

// TestSessionEngineScratchOwnership pins who owns a session engine's
// scratch: an unlent solve returns a solution detached from the pooled
// scratch it ran on, a lent solve stays bound to the caller's scratch,
// and PutScratch unbinds a scratch and drops its LP relaxation.
func TestSessionEngineScratchOwnership(t *testing.T) {
	ctx := context.Background()
	in := nodInstance(t)
	eng := MustLookup(LPRound)

	pooled, err := eng.Solve(ctx, Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	lent, err := eng.Solve(ctx, Request{Instance: in, Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	again, err := eng.Solve(ctx, Request{Instance: in, Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	// A session reuses its solution buffer, so scratch-owned solutions
	// of one scratch share a pointer.
	if again.Solution != lent.Solution || sc.in != in || !sc.lpBound {
		t.Fatalf("lent solve did not run on the caller's scratch (bound %v, lp %v)", sc.in == in, sc.lpBound)
	}
	// The next pooled solve most likely reuses the same scratch; a
	// detached solution survives it.
	want := pooled.Solution.Clone()
	if _, err := eng.Solve(ctx, Request{Instance: withDistanceInstance(t)}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled.Solution, want) {
		t.Fatal("an unlent solve returned a scratch-owned solution")
	}
	if lent.LowerBound != pooled.LowerBound || lent.Solution.NumReplicas() != pooled.Solution.NumReplicas() {
		t.Fatalf("lent %+v and pooled %+v solves differ", lent, pooled)
	}

	// PutScratch unbinds the scratch and drops what would pin the
	// instance or a tableau; lp-round's grow-only buffers stay
	// (TestPooledLPKeepsBuffers). The LP session keeps no instance
	// pointer: its relaxation and its exact.Transport hold copies.
	PutScratch(sc)
	lps := reflect.ValueOf(sc.lp)
	if sc.in != nil || !lps.FieldByName("prob").IsNil() || !lps.FieldByName("ws").IsNil() {
		t.Fatal("PutScratch kept the instance binding, the LP relaxation or the simplex workspace")
	}
}

// TestSizeCeilingRefusesDirectRequest pins that a polynomial engine
// with a declared MaxNodes refuses a larger instance before ingesting
// it, while the portfolio simply leaves it out.
func TestSizeCeilingRefusesDirectRequest(t *testing.T) {
	b := tree.NewBuilder()
	root := b.Root("root")
	for i := 0; i < lpRoundMaxNodes; i++ {
		b.Client(root, 1, 1, "")
	}
	in := &core.Instance{Tree: b.MustBuild(), W: 64, DMax: core.NoDistance}
	sc := NewScratch()
	_, err := MustLookup(LPRound).Solve(context.Background(), Request{Instance: in, Scratch: sc})
	if !errors.Is(err, ErrPolicyUnsupported) {
		t.Fatalf("lp-round on %d nodes: err %v, want ErrPolicyUnsupported", in.Tree.Len(), err)
	}
	if sc.in != nil {
		t.Fatal("the refused instance was ingested")
	}
	rep, err := MustLookup(Auto).Solve(context.Background(), Request{Instance: in, NoBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine == LPRound {
		t.Fatal("auto raced lp-round above its ceiling")
	}
}
