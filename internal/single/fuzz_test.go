package single

import (
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// FuzzNoDFamily decodes a small instance and holds the NoD family to
// the reference oracles: a session's NoD, PassUp, Best and PushUp
// (each run twice, so the second run reuses grown buffers), the
// package functions, and PushUp on Algorithm 1's solution under the
// instance's dmax must give the oracle's solution or error text. The
// bytes are read as: the node count (2 to 15), W, per node after the
// root its parent (among the earlier nodes), edge length and requests
// (leaves only), then dmax (a byte of 200 or more means none). Missing
// bytes read as zero.
func FuzzNoDFamily(f *testing.F) {
	f.Add([]byte{5, 4, 0, 1, 3, 0, 2, 4, 1, 1, 2, 1, 3, 2, 255})
	f.Add([]byte{9, 3, 0, 1, 1, 0, 1, 2, 1, 2, 2, 1, 1, 1, 1, 0, 3, 3, 2, 1, 2, 4, 2, 1, 2, 5, 3, 1, 1, 6})
	// A chain of push-up moves under a finite dmax: a server that took
	// over a deeper one's clients moves on, and their distance binds.
	f.Add([]byte("7700010010000000000000010y10020y000207000,007"))
	f.Add([]byte{13, 5, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 3, 0, 0, 3, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 2, 0, 0, 5, 0, 0, 4, 0, 0, 3, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 2 + next()%14
		w := int64(1 + next()%8)
		type rec struct {
			parent     int
			dist, reqs int64
		}
		recs := make([]rec, n)
		leaf := make([]bool, n)
		for i := 1; i < n; i++ {
			recs[i] = rec{next() % i, int64(next() % 5), int64(next() % 10)}
			leaf[i] = true
			leaf[recs[i].parent] = false
		}
		b := tree.NewBuilder()
		b.Root("")
		for i := 1; i < n; i++ {
			var r int64
			if leaf[i] {
				r = recs[i].reqs
			}
			if _, err := b.Add(tree.NodeID(recs[i].parent), recs[i].dist, r, ""); err != nil {
				return
			}
		}
		tr, err := b.Build()
		if err != nil {
			return
		}
		in := &core.Instance{Tree: tr, W: w, DMax: core.NoDistance}
		if v := next(); v < 200 {
			in.DMax = int64(v % 12)
		}
		if in.Validate() != nil {
			return
		}
		var s Session
		s.Reset(in)
		for _, a := range []struct {
			name    string
			oracle  func(*core.Instance) (*core.Solution, error)
			wrapper func(*core.Instance) (*core.Solution, error)
			warm    func(*Session) (*core.Solution, error)
		}{
			{"nod", referenceNoD, NoD, (*Session).NoD},
			{"passup", referencePassUp, NoDPassUp, (*Session).PassUp},
			{"best", referenceBest, NoDBest, (*Session).Best},
			{"pushup", nodPushUp(referenceNoD, referencePushUp), nodPushUp(NoD, PushUp), (*Session).PushUp},
		} {
			want, wantErr := a.oracle(in)
			got, gotErr := a.wrapper(in)
			sameOutcome(t, a.name, want, wantErr, got, gotErr)
			for round := 0; round < 2; round++ {
				got, gotErr := a.warm(&s)
				sameOutcome(t, a.name+" session", want, wantErr, got, gotErr)
			}
		}
		if g, err := referenceGen(in); err == nil {
			sameOutcome(t, "gen pushup", referencePushUp(in, g), nil, PushUp(in, g), nil)
		}
	})
}
