package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/service"
	"replicatree/internal/solver"
)

// corpusInstance loads one instance of the checked-in golden corpus.
func corpusInstance(t testing.TB, name string) *core.Instance {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var in core.Instance
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	return &in
}

// corpusFiles lists the corpus instances (manifest excluded).
func corpusFiles(t testing.TB) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("..", "..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Name() != "manifest.json" && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	return names
}

func newTestFleet(t testing.TB, cfg Config) (*Fleet, *httptest.Server) {
	t.Helper()
	f := New(cfg)
	ts := httptest.NewServer(f.Router())
	t.Cleanup(func() {
		ts.Close()
		f.Close()
	})
	return f, ts
}

func postBody(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// solveVia solves one instance through the router and decodes the v2
// response.
func solveVia(t testing.TB, url, solverName string, in *core.Instance) service.SolveResponseV2 {
	t.Helper()
	resp, body := postBody(t, url+"/v2/solve", service.SolveRequestV2{Solver: solverName, Instance: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	var out service.SolveResponseV2
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// stubNet is a scripted peerNetwork for cache unit tests.
type stubNet struct {
	mu      sync.Mutex
	entries map[string]solver.Report
	pushes  int
}

func (s *stubNet) fetchPeer(origin, solverName, key string) (solver.Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.entries[solverName+"/"+key]
	return rep, ok
}

func (s *stubNet) pushReplicas(origin, solverName, key string, rep solver.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushes++
}

// TestTieredCacheMergedAccounting pins the two-tier Get/Put flow and
// the merged stats view: a tier-2 hit counts as a hit (not the local
// miss that preceded it) and is adopted into tier 1.
func TestTieredCacheMergedAccounting(t *testing.T) {
	sol := &core.Solution{}
	sol.AddReplica(1)
	sol.Assign(1, 1, 1)
	rep := solver.Report{Solution: sol, Policy: core.Single, LowerBound: 1}
	net := &stubNet{entries: map[string]solver.Report{"s/k1": rep}}
	tc := newTieredCache("w0", 8, net)

	got, ok := tc.Get("s", "k1") // tier-1 miss → tier-2 hit
	if !ok || got.Solution.NumReplicas() != 1 {
		t.Fatalf("tier-2 lookup failed: ok=%v", ok)
	}
	if _, ok := tc.Get("s", "k1"); !ok { // adopted → tier-1 hit
		t.Fatal("tier-2 hit was not adopted into tier 1")
	}
	if _, ok := tc.Get("s", "k2"); ok { // true miss on both tiers
		t.Fatal("phantom hit")
	}
	ts := tc.tierStats()
	if ts.Tier1Hits != 1 || ts.Tier2Hits != 1 || ts.Tier2Misses != 1 {
		t.Errorf("tier stats %+v, want t1=1 t2=1 t2miss=1", ts)
	}
	st := tc.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("merged stats %+v, want 2 hits / 1 miss", st)
	}
	tc.Put("s", "k3", rep)
	if net.pushes != 1 {
		t.Errorf("Put pushed %d replicas, want 1", net.pushes)
	}
}

func TestShardKeyStripsVariant(t *testing.T) {
	if got := shardKey("abc123|p=1;b=0"); got != "abc123" {
		t.Errorf("shardKey kept the variant: %q", got)
	}
	if got := shardKey("abc123"); got != "abc123" {
		t.Errorf("plain hash mangled: %q", got)
	}
}

// TestFleetPeerLookup: a worker that never saw an instance serves it
// from the owner's cache (tier 2) rather than re-solving.
func TestFleetPeerLookup(t *testing.T) {
	f, ts := newTestFleet(t, Config{Workers: 3, Replication: 1, CacheSize: 64})
	in := corpusInstance(t, "binary_dist_1.json")
	key := in.CanonicalHash()
	const eng = "single-gen"

	out := solveVia(t, ts.URL, eng, in)
	if out.Cached {
		t.Fatal("first solve reported cached")
	}
	owner, _ := f.ring.Owner(key)
	holders := f.ring.Successors(key, 2) // owner + its one replica target
	var outsider *Worker
	for _, id := range f.WorkerIDs() {
		if id != holders[0] && (len(holders) < 2 || id != holders[1]) {
			outsider = f.Worker(id)
			break
		}
	}
	if outsider == nil {
		t.Fatal("no outsider worker")
	}
	if _, ok := outsider.cache.peek(eng, key); ok {
		t.Fatalf("outsider %s already holds the key locally", outsider.ID())
	}
	rep, ok := outsider.cache.Get(eng, key)
	if !ok || rep.Solution == nil {
		t.Fatalf("outsider tier-2 lookup failed (owner %s holds the entry)", owner)
	}
	if ts2 := outsider.cache.tierStats(); ts2.Tier2Hits != 1 {
		t.Errorf("outsider tier stats %+v, want one tier-2 hit", ts2)
	}
	if _, ok := outsider.cache.peek(eng, key); !ok {
		t.Error("tier-2 hit was not adopted locally")
	}
}

// TestFleetUnknownHintsHitOnOwner: bodies that differ only in an
// unknown "hints" object land on the key's owner, which solves the
// first and serves the other two from its cache.
func TestFleetUnknownHintsHitOnOwner(t *testing.T) {
	f, ts := newTestFleet(t, Config{Workers: 3, Replication: 1, CacheSize: 64})
	in := corpusInstance(t, "binary_dist_1.json")
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, hints := range []string{`{"a":"1"}`, `{"b":"2"}`, `{"no-lower-bound":"1"}`} {
		body := `{"solver":"single-gen","hints":` + hints + `,"instance":` + string(raw) + `}`
		resp, err := http.Post(ts.URL+"/v2/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out service.SolveResponseV2
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("body %d: status %d, decode %v", i, resp.StatusCode, err)
		}
		if out.Cached != (i > 0) {
			t.Errorf("body %d: cached %v", i, out.Cached)
		}
	}
	owner, _ := f.ring.Owner(in.CanonicalHash())
	if st := f.Worker(owner).cache.tierStats(); st.Tier1Hits != 2 || st.Tier1Misses != 1 {
		t.Errorf("owner %s tier stats %+v, want 2 tier-1 hits / 1 miss", owner, st)
	}
}

// TestFleetGossipReplication: a fresh solve is replicated to exactly
// the key's K ring successors.
func TestFleetGossipReplication(t *testing.T) {
	f, ts := newTestFleet(t, Config{Workers: 4, Replication: 2, CacheSize: 64})
	in := corpusInstance(t, "binary_dist_2.json")
	key := in.CanonicalHash()
	const eng = "single-gen"

	solveVia(t, ts.URL, eng, in)
	f.SyncGossip()

	holders := f.ring.Successors(key, 3) // owner + K=2 replicas
	holderSet := make(map[string]bool, len(holders))
	for _, id := range holders {
		holderSet[id] = true
	}
	for _, id := range f.WorkerIDs() {
		_, has := f.Worker(id).cache.peek(eng, key)
		if holderSet[id] && !has {
			t.Errorf("worker %s (owner or replica target) is missing the entry", id)
		}
		if !holderSet[id] && has {
			t.Errorf("worker %s holds an entry gossip should not have sent it", id)
		}
	}
	if snap := f.Snapshot(); snap.Gossip.Sent != 2 || snap.Totals.ReplicasAccepted != 2 {
		t.Errorf("gossip counters %+v / accepted %d, want 2 / 2", snap.Gossip, snap.Totals.ReplicasAccepted)
	}
}

// TestFleetFailoverServesReplica is the crash story end to end: warm
// the owner, replicate, kill the owner, and the same request must
// succeed through a ring successor — warm, via the gossiped replica.
func TestFleetFailoverServesReplica(t *testing.T) {
	f, ts := newTestFleet(t, Config{Workers: 3, Replication: 1, CacheSize: 64})
	in := corpusInstance(t, "gadget_fig4.json")
	key := in.CanonicalHash()
	const eng = "single-gen"

	solveVia(t, ts.URL, eng, in)
	f.SyncGossip()
	owner, _ := f.ring.Owner(key)
	if err := f.Kill(owner); err != nil {
		t.Fatal(err)
	}

	out := solveVia(t, ts.URL, eng, in) // must not 5xx
	if !out.Cached {
		t.Error("failover request missed the replicated entry (cold re-solve)")
	}
	snap := f.Snapshot()
	if snap.Failovers == 0 {
		t.Error("failover counter did not move")
	}
	if snap.Alive != 2 || snap.PerWorker[owner].State != "dead" {
		t.Errorf("snapshot after kill: alive=%d owner state=%s", snap.Alive, snap.PerWorker[owner].State)
	}
	// The successor that served it must not have re-solved: its
	// service saw no fresh solve for this engine beyond the replica.
	if !out.Verified || out.Replicas == 0 {
		t.Errorf("degenerate failover response: %+v", out)
	}
}

// TestFleetKillMidLoad pins the acceptance bar "killing one worker
// mid-run yields zero failed requests": hammer the router from many
// goroutines, kill a worker halfway through, and every response must
// be 200.
func TestFleetKillMidLoad(t *testing.T) {
	f, ts := newTestFleet(t, Config{Workers: 4, Replication: 2, CacheSize: 256})
	// Warm every feasible key once so the kill happens against a warm
	// fleet (some corpus instances are infeasible for Single — skip).
	var instances []*core.Instance
	for _, name := range corpusFiles(t) {
		in := corpusInstance(t, name)
		resp, _ := postBody(t, ts.URL+"/v2/solve", service.SolveRequestV2{Solver: "single-gen", Instance: in})
		if resp.StatusCode == http.StatusOK {
			instances = append(instances, in)
		}
	}
	if len(instances) < 3 {
		t.Fatalf("only %d feasible corpus instances", len(instances))
	}
	f.SyncGossip()

	const goroutines = 8
	const perG = 60
	victim, _ := f.ring.Owner(instances[0].CanonicalHash())
	var killed sync.WaitGroup
	killed.Add(1)
	var bad atomic.Int64
	var killErr error
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				if g == 0 && i == perG/3 {
					killErr = f.Kill(victim)
					killed.Done()
				}
				in := instances[rng.Intn(len(instances))]
				resp, body := postBody(t, ts.URL+"/v2/solve", service.SolveRequestV2{Solver: "single-gen", Instance: in})
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
					t.Errorf("status %d during kill-load: %s", resp.StatusCode, body)
				}
			}
		}(g)
	}
	wg.Wait()
	killed.Wait()
	if killErr != nil {
		t.Fatal(killErr)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d failed requests after killing %s", bad.Load(), victim)
	}
	if snap := f.Snapshot(); snap.Alive != 3 {
		t.Errorf("alive=%d after one kill", snap.Alive)
	}
}

// TestFleetDrain pins the graceful-leave contract: the drained
// worker's hottest entries land on their new owners before its memory
// goes away, the ring shrinks, and its keyspace stays warm.
func TestFleetDrain(t *testing.T) {
	// Replication off: any post-drain warmth must come from the drain
	// push itself, not from earlier gossip.
	f, ts := newTestFleet(t, Config{Workers: 3, Replication: 0, CacheSize: 64})
	const eng = "single-gen"
	byOwner := make(map[string][]*core.Instance)
	for _, name := range corpusFiles(t) {
		in := corpusInstance(t, name)
		resp, _ := postBody(t, ts.URL+"/v2/solve", service.SolveRequestV2{Solver: eng, Instance: in})
		if resp.StatusCode != http.StatusOK {
			continue // infeasible for Single
		}
		owner, _ := f.ring.Owner(in.CanonicalHash())
		byOwner[owner] = append(byOwner[owner], in)
	}
	var victim string
	for id, owned := range byOwner {
		if len(owned) > 0 {
			victim = id
			break
		}
	}
	if victim == "" {
		t.Fatal("no worker owns any corpus key")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Drain(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if f.ring.Size() != 2 {
		t.Errorf("ring size %d after drain, want 2", f.ring.Size())
	}
	if st := f.Worker(victim).cache.drainOut.Load(); st == 0 {
		t.Error("drain pushed no entries")
	}
	for _, in := range byOwner[victim] {
		key := in.CanonicalHash()
		newOwner, _ := f.ring.Owner(key)
		if _, ok := f.Worker(newOwner).cache.peek(eng, key); !ok {
			t.Errorf("key %s… not warm at new owner %s after drain", key[:8], newOwner)
		}
		out := solveVia(t, ts.URL, eng, in)
		if !out.Cached {
			t.Errorf("post-drain solve of %s… was cold", key[:8])
		}
	}
	// A second drain of the same worker must refuse.
	if err := f.Drain(ctx, victim); err == nil {
		t.Error("draining a dead worker did not error")
	}
}

// TestFleetObservability: /healthz and /metrics expose the fleet
// topology and per-worker tier counters.
func TestFleetObservability(t *testing.T) {
	f, ts := newTestFleet(t, Config{Workers: 2, Replication: 1, CacheSize: 16})
	in := corpusInstance(t, "wide_dist.json")
	solveVia(t, ts.URL, "single-gen", in)
	solveVia(t, ts.URL, "single-gen", in) // warm repeat

	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hz struct {
		Status  string   `json:"status"`
		Workers int      `json:"workers"`
		Alive   int      `json:"alive"`
		Ring    []string `json:"ring"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Workers != 2 || hz.Alive != 2 || len(hz.Ring) != 2 {
		t.Errorf("healthz %+v", hz)
	}

	respM, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer respM.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(respM.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Workers != 2 || len(snap.PerWorker) != 2 {
		t.Errorf("snapshot shape %+v", snap)
	}
	if snap.Totals.Tier1Hits == 0 {
		t.Error("warm repeat did not count as a tier-1 hit in totals")
	}
	if snap.Router.Requests["/v2/solve"] != 2 {
		t.Errorf("router request counter %v", snap.Router.Requests)
	}
	if f.Snapshot().Replication != 1 {
		t.Error("replication factor missing from snapshot")
	}
}
