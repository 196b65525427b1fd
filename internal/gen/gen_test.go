package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

func TestGadgetI2Validation(t *testing.T) {
	if _, _, err := GadgetI2([]int64{1, 2}, 10); err == nil {
		t.Error("not a multiple of 3 should fail")
	}
	if _, _, err := GadgetI2([]int64{1, 7, 8}, 16); err == nil {
		t.Error("ai outside (B/4, B/2) should fail")
	}
	if _, _, err := GadgetI2([]int64{5, 5, 5}, 16); err == nil {
		t.Error("sum != mB should fail")
	}
}

func TestGadgetI2Structure(t *testing.T) {
	as := []int64{5, 5, 6, 5, 5, 6} // m=2, B=16
	in, K, err := GadgetI2(as, 16)
	if err != nil {
		t.Fatal(err)
	}
	if K != 2 {
		t.Fatalf("K = %d, want 2", K)
	}
	if !in.Tree.IsBinary() {
		t.Fatal("I2 must be binary (Single-NoD-Bin)")
	}
	if !in.NoD() {
		t.Fatal("I2 must have no distance constraint")
	}
	if in.W != 16 {
		t.Fatalf("W = %d, want B = 16", in.W)
	}
	if got := in.Tree.NumClients(); got != 6 {
		t.Fatalf("clients = %d, want 6", got)
	}
	if got := in.Tree.TotalRequests(); got != 32 {
		t.Fatalf("total = %d, want 32", got)
	}
}

// TestGadgetI2Equivalence is the Theorem 1 reproduction: I2 has a
// solution with m servers iff the 3-Partition instance is YES.
func TestGadgetI2Equivalence(t *testing.T) {
	B := int64(16)
	yes := []int64{5, 5, 6, 5, 5, 6}
	no := []int64{5, 5, 5, 5, 5, 7} // triples can sum only to 15 or 17
	if !ThreePartitionExists(yes, B) {
		t.Fatal("yes instance mislabelled")
	}
	if ThreePartitionExists(no, B) {
		t.Fatal("no instance mislabelled")
	}
	for _, tc := range []struct {
		as   []int64
		want bool
	}{{yes, true}, {no, false}} {
		in, K, err := GadgetI2(tc.as, B)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := exact.SolveSingle(in, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := sol.NumReplicas() <= K; got != tc.want {
			t.Errorf("as=%v: opt=%d, K=%d: solvable=%v, want %v",
				tc.as, sol.NumReplicas(), K, got, tc.want)
		}
	}
}

func TestGadgetI4Validation(t *testing.T) {
	if _, err := GadgetI4([]int64{1, 2}); err == nil {
		t.Error("odd total should fail")
	}
	if _, err := GadgetI4([]int64{3}); err == nil {
		t.Error("single element should fail")
	}
	if _, err := GadgetI4([]int64{-1, 1}); err == nil {
		t.Error("non-positive should fail")
	}
	if _, err := GadgetI4([]int64{9, 1, 1, 1}); err == nil {
		t.Error("ai > S/2 should fail (no Single solution)")
	}
}

// TestGadgetI4Equivalence is the Theorem 2 reproduction: opt = 2 iff
// 2-Partition is YES, and ≥ 3 otherwise — the gap behind the 3/2−ε
// inapproximability.
func TestGadgetI4Equivalence(t *testing.T) {
	yes := []int64{3, 3, 2, 2}
	no := []int64{3, 3, 3, 1}
	if !TwoPartitionExists(yes) || TwoPartitionExists(no) {
		t.Fatal("instances mislabelled")
	}
	for _, tc := range []struct {
		as      []int64
		wantOpt int
	}{{yes, 2}, {no, 3}} {
		in, err := GadgetI4(tc.as)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := exact.SolveSingle(in, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.NumReplicas() != tc.wantOpt {
			t.Errorf("as=%v: opt = %d, want %d", tc.as, sol.NumReplicas(), tc.wantOpt)
		}
	}
}

func TestGadgetImStructure(t *testing.T) {
	if _, err := GadgetIm(0, 2); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := GadgetIm(1, 1); err == nil {
		t.Error("Δ=1 should fail")
	}
	for _, delta := range []int{2, 3, 5} {
		for _, m := range []int{1, 3} {
			res, err := GadgetIm(m, delta)
			if err != nil {
				t.Fatal(err)
			}
			in := res.Instance
			mi, di := int64(m), int64(delta)
			if in.W != mi*di+di-1 {
				t.Errorf("Im(%d,%d): W = %d, want %d", m, delta, in.W, mi*di+di-1)
			}
			if in.DMax != 4*mi {
				t.Errorf("Im(%d,%d): dmax = %d, want %d", m, delta, in.DMax, 4*mi)
			}
			if got := in.Tree.Arity(); got != delta {
				t.Errorf("Im(%d,%d): arity = %d, want %d", m, delta, got, delta)
			}
			// Per block: Δ+1 clients; total requests m(mΔ+2Δ−1).
			if got := in.Tree.NumClients(); got != m*(delta+1) {
				t.Errorf("Im(%d,%d): clients = %d, want %d", m, delta, got, m*(delta+1))
			}
			if got := in.Tree.TotalRequests(); got != mi*(mi*di+2*di-1) {
				t.Errorf("Im(%d,%d): total = %d, want %d", m, delta, got, mi*(mi*di+2*di-1))
			}
			if !in.FitsLocally() {
				t.Errorf("Im(%d,%d): some client exceeds W", m, delta)
			}
		}
	}
}

func TestGadgetFig4Structure(t *testing.T) {
	if _, err := GadgetFig4(0); err == nil {
		t.Error("K=0 should fail")
	}
	res, err := GadgetFig4(5)
	if err != nil {
		t.Fatal(err)
	}
	in := res.Instance
	if in.W != 5 || !in.NoD() {
		t.Fatalf("W=%d NoD=%v", in.W, in.NoD())
	}
	if got := in.Tree.NumClients(); got != 10 {
		t.Fatalf("clients = %d, want 10", got)
	}
	if got := in.Tree.TotalRequests(); got != 5*5+5 {
		t.Fatalf("total = %d, want 30", got)
	}
	if res.AlgoReplicas != 10 || res.OptReplicas != 6 {
		t.Fatalf("closed forms wrong: %+v", res)
	}
}

func TestGadgetI6Validation(t *testing.T) {
	if _, _, err := GadgetI6([]int64{1, 1}); err == nil {
		t.Error("fewer than 4 should fail")
	}
	if _, _, err := GadgetI6([]int64{1, 1, 1}); err == nil {
		t.Error("odd count should fail")
	}
	if _, _, err := GadgetI6([]int64{1, 1, 1, 2}); err == nil {
		t.Error("odd total should fail")
	}
	if _, _, err := GadgetI6([]int64{1, 1, 5, 5}); err == nil {
		t.Error("ai > S/4 should fail (bi < 0)")
	}
	if _, _, err := GadgetI6([]int64{0, 2, 1, 1}); err == nil {
		t.Error("non-positive should fail")
	}
}

func TestGadgetI6Structure(t *testing.T) {
	as := []int64{1, 1, 2, 2, 3, 3} // m = 3, S = 12
	in, K, err := GadgetI6(as)
	if err != nil {
		t.Fatal(err)
	}
	m := 3
	if K != 4*m {
		t.Fatalf("K = %d, want %d", K, 4*m)
	}
	if !in.Tree.IsBinary() {
		t.Fatal("I6 must be binary")
	}
	if in.W != 7 {
		t.Fatalf("W = %d, want S/2+1 = 7", in.W)
	}
	if in.DMax != int64(3*m) {
		t.Fatalf("dmax = %d, want %d", in.DMax, 3*m)
	}
	if got := in.Tree.NumClients(); got != 5*m {
		t.Fatalf("clients = %d, want %d", got, 5*m)
	}
	if got := len(in.Tree.Internals()); got != 5*m-1 {
		t.Fatalf("internals = %d, want %d", got, 5*m-1)
	}
	// The big client exceeds W: the NP-hard regime.
	if in.FitsLocally() {
		t.Fatal("I6 must contain a client with ri > W")
	}
}

// TestGadgetI6ForwardDirection verifies the proof's explicit solution:
// for a certificate I, the constructed 4m-replica solution is
// feasible.
func TestGadgetI6ForwardDirection(t *testing.T) {
	cases := []struct {
		as []int64
		I  []int
	}{
		{[]int64{1, 1, 1, 1}, []int{1, 2}},
		{[]int64{1, 1, 2, 2, 3, 3}, []int{1, 3, 5}},          // 1+2+3 = 6 = S/2
		{[]int64{2, 2, 2, 2, 3, 3}, []int{1, 2, 5}},          // 2+2+3 = 7 = S/2
		{[]int64{1, 2, 2, 2, 2, 3, 3, 3}, []int{1, 4, 6, 8}}, // m=4: 1+2+3+3 = 9 = S/2
	}
	for _, tc := range cases {
		in, K, err := GadgetI6(tc.as)
		if err != nil {
			t.Fatalf("as=%v: %v", tc.as, err)
		}
		sol, err := I6Solution(in, tc.as, tc.I)
		if err != nil {
			t.Fatalf("as=%v: %v", tc.as, err)
		}
		if sol.NumReplicas() != K {
			t.Errorf("as=%v: solution uses %d replicas, want %d", tc.as, sol.NumReplicas(), K)
		}
		if err := core.Verify(in, core.Multiple, sol); err != nil {
			t.Errorf("as=%v: paper solution infeasible: %v", tc.as, err)
		}
	}
}

// TestGadgetI6StructuredEquivalence checks the combinatorial heart of
// the converse: among "structured" replica sets (the 3m forced
// replicas plus m of the nodes n1..n2m), feasibility holds iff the
// chosen index set is a certificate.
func TestGadgetI6StructuredEquivalence(t *testing.T) {
	as := []int64{1, 1, 2, 2, 3, 3} // m = 3, S = 12, S/2 = 6
	m := 3
	in, _, err := GadgetI6(as)
	if err != nil {
		t.Fatal(err)
	}
	forced := []tree.NodeID{FindLabel(in.Tree, "big")}
	for j := 2*m + 1; j <= 5*m-1; j++ {
		forced = append(forced, FindLabel(in.Tree, nodeLabel(j)))
	}
	// Enumerate all m-subsets of {1..2m}.
	idx := make([]int, 0, m)
	var recurse func(start int)
	checked, feasibleCount := 0, 0
	recurse = func(start int) {
		if len(idx) == m {
			var sum int64
			R := append([]tree.NodeID{}, forced...)
			for _, i := range idx {
				sum += as[i-1]
				R = append(R, FindLabel(in.Tree, nodeLabel(i)))
			}
			want := sum == 6
			got := exact.MultipleFeasible(in, R)
			if got != want {
				t.Errorf("I=%v (sum %d): structured feasibility %v, want %v", idx, sum, got, want)
			}
			checked++
			if got {
				feasibleCount++
			}
			return
		}
		for i := start; i <= 2*m; i++ {
			idx = append(idx, i)
			recurse(i + 1)
			idx = idx[:len(idx)-1]
		}
	}
	recurse(1)
	if checked != 20 {
		t.Fatalf("checked %d subsets, want C(6,3)=20", checked)
	}
	if feasibleCount == 0 || feasibleCount == checked {
		t.Fatalf("degenerate test: %d/%d feasible", feasibleCount, checked)
	}
}

func nodeLabel(j int) string { return "n" + itoa(j) }

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}

func TestThreePartitionGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(2)
		B := int64(16 + 4*rng.Intn(10))
		as := ThreePartitionYes(rng, m, B)
		if len(as) != 3*m {
			t.Fatalf("len = %d", len(as))
		}
		var sum int64
		for _, a := range as {
			if !(a > B/4 && a < (B+1)/2) {
				t.Fatalf("ai=%d out of (B/4,B/2), B=%d", a, B)
			}
			sum += a
		}
		if sum != int64(m)*B {
			t.Fatalf("sum = %d, want %d", sum, int64(m)*B)
		}
		if !ThreePartitionExists(as, B) {
			t.Fatalf("YES instance not recognised: %v B=%d", as, B)
		}
	}
	if ThreePartitionExists([]int64{5, 5, 5, 5, 5, 7}, 16) {
		t.Fatal("known NO instance recognised as YES")
	}
	if ThreePartitionExists([]int64{1, 2}, 3) {
		t.Fatal("non-multiple-of-3 should be NO")
	}
}

func TestTwoPartitionGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		as := TwoPartitionYes(rng, 2+rng.Intn(4), 20)
		if !TwoPartitionExists(as) {
			t.Fatalf("YES instance not recognised: %v", as)
		}
	}
	if TwoPartitionExists([]int64{1, 2, 4}) {
		t.Fatal("odd-total NO instance recognised")
	}
	if TwoPartitionExists([]int64{2, 4, 10}) {
		t.Fatal("even-total NO instance (no subset sums to 8) recognised as YES")
	}
}

func TestTwoPartitionEqualGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(3)
		as := TwoPartitionEqualYes(rng, m, 9)
		if len(as) != 2*m {
			t.Fatalf("len = %d", len(as))
		}
		var S int64
		for _, a := range as {
			S += a
		}
		for _, a := range as {
			if 4*a > S {
				t.Fatalf("ai=%d > S/4 (S=%d)", a, S)
			}
		}
		if !TwoPartitionEqualExists(as) {
			t.Fatalf("YES instance not recognised: %v", as)
		}
	}
	// NO: all even values, odd half-sum.
	if TwoPartitionEqualExists([]int64{2, 2, 2, 2, 2, 2, 2, 4}) {
		t.Fatal("parity NO instance recognised as YES")
	}
	if TwoPartitionEqualExists([]int64{1, 2, 3}) {
		t.Fatal("odd count should be NO")
	}
}

func TestRandomTreeValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := TreeConfig{
			Internals:    1 + rng.Intn(20),
			MaxArity:     2 + rng.Intn(4),
			MaxDist:      1 + rng.Int63n(5),
			MaxReq:       1 + rng.Int63n(30),
			ExtraClients: rng.Intn(10),
		}
		tr := RandomTree(rng, cfg)
		if tr.Validate() != nil {
			return false
		}
		if tr.Arity() > cfg.MaxArity {
			return false
		}
		return tr.MaxRequests() <= cfg.MaxReq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeDeterministic(t *testing.T) {
	cfg := TreeConfig{Internals: 8, MaxArity: 3, MaxDist: 4, MaxReq: 9, ExtraClients: 5}
	t1 := RandomTree(rand.New(rand.NewSource(7)), cfg)
	t2 := RandomTree(rand.New(rand.NewSource(7)), cfg)
	if t1.Len() != t2.Len() || t1.TotalRequests() != t2.TotalRequests() {
		t.Fatal("same seed must give the same tree")
	}
}

func TestRandomBinaryIsBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 30; i++ {
		tr := RandomBinary(rng, 1+rng.Intn(15), 4, 10)
		if !tr.IsBinary() {
			t.Fatal("RandomBinary produced arity > 2")
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCaterpillarAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cat := Caterpillar(rng, 6, 3, 9)
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cat.IsBinary() {
		t.Fatal("caterpillar should be binary")
	}
	if cat.NumClients() != 7 {
		t.Fatalf("caterpillar clients = %d, want 7", cat.NumClients())
	}
	cb := CompleteBinary(rng, 3, 3, 9)
	if err := cb.Validate(); err != nil {
		t.Fatal(err)
	}
	if cb.NumClients() != 8 {
		t.Fatalf("complete binary depth 3: clients = %d, want 8", cb.NumClients())
	}
	// Degenerate parameters fall back to minimal shapes.
	if Caterpillar(rng, 0, 0, 0).Validate() != nil {
		t.Fatal("degenerate caterpillar invalid")
	}
	if CompleteBinary(rng, 0, 0, 0).Validate() != nil {
		t.Fatal("degenerate complete binary invalid")
	}
}

func TestRandomInstanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 50; i++ {
		withD := i%2 == 0
		in := RandomInstance(rng, TreeConfig{Internals: 5}, withD)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		if !in.FitsLocally() {
			t.Fatal("RandomInstance must satisfy ri ≤ W")
		}
		if withD == in.NoD() {
			t.Fatalf("withDistance=%v but NoD=%v", withD, in.NoD())
		}
	}
}
