package lp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

// coldShaped draws an instance shaped like the benchmark's solve-cold
// requests: a binary tree with the given number of internal nodes, W
// about sixteen servers' worth of demand and dmax twice the height.
func coldShaped(rng *rand.Rand, internals, arity int) *core.Instance {
	t := gen.RandomTree(rng, gen.TreeConfig{Internals: internals, MaxArity: arity, MaxDist: 4, MaxReq: 10})
	return &core.Instance{Tree: t, W: max(t.MaxRequests(), t.TotalRequests()/16), DMax: 2 * int64(t.Height())}
}

// coldSet is the 40-instance solve-cold-shaped set (~210 nodes each)
// that the digest pins and BenchmarkLPRound share.
func coldSet() []*core.Instance {
	rng := rand.New(rand.NewSource(1801))
	ins := make([]*core.Instance, 40)
	for i := range ins {
		ins[i] = coldShaped(rng, 150, 2)
	}
	return ins
}

// pinSet is coldSet plus a few larger, wider and tighter instances.
func pinSet() []*core.Instance {
	ins := coldSet()
	rng := rand.New(rand.NewSource(1802))
	for i := 0; i < 2; i++ {
		ins = append(ins, coldShaped(rng, 600, 2))
	}
	for i := 0; i < 4; i++ {
		ins = append(ins, coldShaped(rng, 150, 3))
	}
	for i := 0; i < 4; i++ {
		in := coldShaped(rng, 150, 2)
		in.DMax = int64(in.Tree.Height()) / 4
		ins = append(ins, in)
	}
	return ins
}

// Digests of the relaxation's answers over pinSet, computed with the
// dense simplex this package first shipped. A faster simplex must
// leave every rounded placement and every LP objective bit unchanged;
// TestPlacementDigestPinned hashes Session.Placement, the path the
// lp-round engine runs, on a fresh session per instance.
const (
	pinPlacementDigest  = "cb63ef4a43f680968a736f6425493a57eea886ad86af642ca63df9c4af27225b"
	pinFractionalDigest = "e6b5756f6730cee6637330b3f710e5e51f5b1e6924e44e3d415202b35f07c1d0"
)

func TestPlacementDigestPinned(t *testing.T) {
	place, frac := sha256.New(), sha256.New()
	for i, in := range pinSet() {
		var s Session
		var sol *core.Solution
		err := s.Reset(in)
		if err == nil {
			sol, err = s.Placement()
		}
		s.Release()
		if err != nil {
			fmt.Fprintf(place, "%d error %v\n", i, err)
		} else {
			b, err := json.Marshal(sol)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(place, "%d %s\n", i, b)
		}
		obj, err := FractionalReplicas(in)
		if err != nil {
			fmt.Fprintf(frac, "%d error %v\n", i, err)
		} else {
			frac.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(obj)))
		}
	}
	if got := hex.EncodeToString(place.Sum(nil)); got != pinPlacementDigest {
		t.Errorf("Placement digest = %s, want %s", got, pinPlacementDigest)
	}
	if got := hex.EncodeToString(frac.Sum(nil)); got != pinFractionalDigest {
		t.Errorf("FractionalReplicas digest = %s, want %s", got, pinFractionalDigest)
	}
}
