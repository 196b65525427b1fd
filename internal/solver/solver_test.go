package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/exact"
)

func TestBuiltinsRegistered(t *testing.T) {
	names := List()
	if len(names) < 8 {
		t.Fatalf("List() = %d solvers, want >= 8: %v", len(names), names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("List() not sorted: %v", names)
	}
	for _, want := range []string{
		SingleGen, SingleNoD, SinglePassUp, SingleBest, SinglePushUp,
		MultipleBin, MultipleLazy, MultipleBest, MultipleGreedy,
		ExactSingle, ExactMultiple, LPRound,
	} {
		if _, err := Lookup(want); err != nil {
			t.Errorf("built-in %q missing: %v", want, err)
		}
	}
	if len(Engines()) != len(names) {
		t.Errorf("Engines() returned %d entries for %d names", len(Engines()), len(names))
	}
}

// trivialEngine is a registrable Single-policy engine that returns
// core.Trivial; caps.Name may deliberately differ from name.
type trivialEngine struct {
	name string
	caps Capabilities
}

func (e trivialEngine) Name() string               { return e.name }
func (e trivialEngine) Capabilities() Capabilities { return e.caps }
func (e trivialEngine) Solve(_ context.Context, req Request) (Report, error) {
	return Report{Solution: core.Trivial(req.Instance), Policy: core.Single, Engine: e.name}, nil
}

func newTrivialEngine(name string) Engine {
	return trivialEngine{name: name, caps: Capabilities{Name: name, Policy: core.Single, SupportsDMax: true}}
}

func TestRegisterRejectsCollisionsAndNil(t *testing.T) {
	if err := RegisterEngine(nil); err == nil {
		t.Error("RegisterEngine(nil) should fail")
	}
	if err := RegisterEngine(newTrivialEngine("")); err == nil {
		t.Error("RegisterEngine with empty name should fail")
	}
	if err := RegisterEngine(newTrivialEngine(SingleGen)); err == nil {
		t.Error("duplicate registration should fail")
	} else if !strings.Contains(err.Error(), SingleGen) {
		t.Errorf("duplicate error should name the solver: %v", err)
	}
	// A fresh name registers and is visible to Lookup and List. The
	// registry is process-global with no Unregister, so the name must
	// be unique per invocation (go test -count=N reuses the process).
	name := fmt.Sprintf("test-tmp-solver-%d", atomic.AddInt32(&tmpSolverSeq, 1))

	// An engine whose capability document names another engine is
	// rejected, and the rejection leaves the name free.
	mislabelled := trivialEngine{name: name, caps: Capabilities{Name: name + "-other", Policy: core.Single}}
	if err := RegisterEngine(mislabelled); err == nil {
		t.Error("capabilities naming another engine should fail")
	} else if !strings.Contains(err.Error(), name+"-other") {
		t.Errorf("mislabel error should name both names: %v", err)
	}

	tmp := newTrivialEngine(name)
	if err := RegisterEngine(tmp); err != nil {
		t.Fatalf("fresh registration failed: %v", err)
	}
	if err := RegisterEngine(tmp); err == nil {
		t.Error("re-registration should fail")
	}
	if got, err := Lookup(name); err != nil || got != tmp {
		t.Errorf("registered engine not found by Lookup: %v, %v", got, err)
	}
}

var tmpSolverSeq int32

func TestGetUnknownListsKnown(t *testing.T) {
	_, err := Lookup("no-such-solver")
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("unknown solver error %v does not wrap ErrUnknownSolver", err)
	}
	if !strings.Contains(err.Error(), SingleGen) || !strings.Contains(err.Error(), "no-such-solver") {
		t.Errorf("error should name the typo and the known set: %v", err)
	}
}

func TestPolicyAndExactMetadata(t *testing.T) {
	cases := []struct {
		name  string
		pol   core.Policy
		exact bool
	}{
		{SingleGen, core.Single, false},
		{SingleNoD, core.Single, false},
		{ExactSingle, core.Single, true},
		{MultipleBest, core.Multiple, false},
		{ExactMultiple, core.Multiple, true},
		{LPRound, core.Multiple, false},
	}
	for _, c := range cases {
		caps := MustLookup(c.name).Capabilities()
		if caps.Policy != c.pol {
			t.Errorf("%s: policy = %v, want %v", c.name, caps.Policy, c.pol)
		}
		if caps.Exact != c.exact {
			t.Errorf("%s: exact = %v, want %v", c.name, caps.Exact, c.exact)
		}
	}
}

func TestNoDGating(t *testing.T) {
	in := withDistanceInstance(t)
	for _, name := range []string{SingleNoD, SinglePassUp, SingleBest, SinglePushUp} {
		if _, err := MustLookup(name).Solve(context.Background(), Request{Instance: in}); err == nil {
			t.Errorf("%s on a distance-constrained instance should fail", name)
		}
	}
}

func TestSolveHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MustLookup(SingleGen).Solve(ctx, Request{Instance: nodInstance(t)}); err == nil {
		t.Error("cancelled context should fail before solving")
	}
}

func TestBudgetContext(t *testing.T) {
	// A starvation budget must abort the exact search with the typed
	// budget error.
	_, err := MustLookup(ExactMultiple).Solve(context.Background(), Request{Instance: nodInstance(t), Budget: 1})
	if !errors.Is(err, exact.ErrBudget) {
		t.Errorf("budget of 1: err = %v, want exact.ErrBudget", err)
	}
}
