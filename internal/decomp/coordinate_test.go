package decomp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// stitched reads a chunked stream back and runs SolveFlat's partition
// and piece solves on it at the given target piece size
// (0 = DefaultPieceSize). It
// returns the instance, the pieces and the stitched placement that
// coordination starts from.
func stitched(tb testing.TB, stream []byte, target int) (*core.FlatInstance, []tree.Piece, *core.Solution) {
	tb.Helper()
	fi, err := core.ReadChunked(bytes.NewReader(stream))
	if err != nil {
		tb.Fatal(err)
	}
	if target == 0 {
		target = DefaultPieceSize
	}
	pieces, sol, err := stitch(context.Background(), fi, target, runtime.GOMAXPROCS(0))
	if err != nil {
		tb.Fatal(err)
	}
	return fi, pieces, sol
}

// TestCoordinateMatchesReference holds coordinate to referenceCoordinate,
// the first coordinator: from the same stitched placement, the two must
// run the same number of rounds, retire the same number of replicas and,
// once normalised, give the same solution bytes. The runs force small
// pieces on 5k- and 20k-node streams, with and without a distance
// bound, so that coordination retires replicas over several rounds, and
// add the 250k-node huge-tree instances TestSolveFlatPinned pins.
func TestCoordinateMatchesReference(t *testing.T) {
	type run struct {
		seed, nodes, target int
		dist                bool
	}
	var runs []run
	for seed := 1; seed <= 9; seed++ {
		for _, nodes := range []int{5_000, 20_000} {
			for _, target := range []int{16, 64, 256} {
				for _, dist := range []bool{false, true} {
					runs = append(runs, run{seed, nodes, target, dist})
				}
			}
		}
	}
	runs = append(runs, run{7, 250_000, 0, false}, run{2, 250_000, 0, false})
	var multiRound, retiring atomic.Int32
	t.Run("runs", func(t *testing.T) {
		for _, r := range runs {
			t.Run(fmt.Sprintf("seed%d_n%d_t%d_d%v", r.seed, r.nodes, r.target, r.dist), func(t *testing.T) {
				t.Parallel()
				fi, pieces, sol := stitched(t, hugeStream(t, int64(r.seed), r.nodes, r.dist), r.target)
				want := sol.Clone()
				rounds, moved := coordinate(fi, pieces, sol, coordinationRounds)
				wantRounds, wantMoved := referenceCoordinate(fi, pieces, want, coordinationRounds)
				sol.Normalize()
				want.Normalize()
				got, err := json.Marshal(sol)
				if err != nil {
					t.Fatal(err)
				}
				wantRaw, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantRaw) {
					t.Errorf("solution differs from the reference's")
				}
				if rounds != wantRounds || moved != wantMoved {
					t.Errorf("rounds/moved %d/%d, reference %d/%d", rounds, moved, wantRounds, wantMoved)
				}
				if wantRounds >= 3 {
					multiRound.Add(1)
				}
				if wantMoved > 0 {
					retiring.Add(1)
				}
			})
		}
	})
	t.Logf("%d runs: %d retire replicas, %d run three rounds or more", len(runs), retiring.Load(), multiRound.Load())
	// Runs that retire nothing past the first round compare only the
	// first round's pass; the sweep must reach the later ones.
	if n := int(multiRound.Load()); n < len(runs)/4 {
		t.Errorf("only %d of %d runs reach a third round", n, len(runs))
	}
}

// BenchmarkCoordinate times boundary coordination and the Normalize
// that follows it on the huge-tree workload's seed-31 instance. The
// pieces are solved once, outside the timer; each op coordinates a
// fresh copy of the stitched placement.
func BenchmarkCoordinate(b *testing.B) {
	fi, pieces, sol := stitched(b, hugeStream(b, 31, 250_000, false), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		s := sol.Clone()
		b.StartTimer()
		coordinate(fi, pieces, s, coordinationRounds)
		s.Normalize()
	}
}
