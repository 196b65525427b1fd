package decomp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

// hugeStream generates the huge-tree workload's instance: a random
// flat tree of the given size with W pinned to a fortieth of the total
// demand (at least the largest request), with or without a distance
// bound, written as a chunked stream of 4,096-node chunks.
func hugeStream(tb testing.TB, seed int64, nodes int, withDistance bool) []byte {
	tb.Helper()
	fi, err := gen.RandomFlatInstance(rand.New(rand.NewSource(seed)), nodes, gen.TreeConfig{}, withDistance)
	if err != nil {
		tb.Fatal(err)
	}
	var total int64
	for _, r := range fi.Flat.Reqs {
		total += r
	}
	fi.W = max(fi.Flat.MaxRequests(), total/40)
	var buf bytes.Buffer
	if err := core.WriteChunked(&buf, fi, 4096); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSolveFlatPinned pins whole decomposition answers: the SHA-256 of
// the JSON solution and the run's counters, for streams read back
// through ReadChunked. The 250k-node rows are the huge-tree workload's
// instances; the small rows force small pieces so that coordination
// retires replicas over several rounds. Any change to partitioning,
// piece solves, stitching, coordination or normalisation that alters
// an answer fails here.
func TestSolveFlatPinned(t *testing.T) {
	cases := []struct {
		seed, nodes, target             int
		dist                            bool
		digest                          string
		replicas, rounds, moved, pieces int
	}{
		{7, 250_000, 0, false, "bd4e6996a36a5f755872d7b7ad5f324347f4aacc0ccecbd4d76e4ab7906b67ab", 46, 2, 13, 46},
		{2, 250_000, 0, false, "fc887aee7d006d8aeb04b61ba667c32a2e3d32c7220b3f850ebdd2e6e30a2152", 48, 2, 9, 44},
		{3, 20_000, 64, false, "70cf8478e942a6faeb7d4f23838299db7448246d71e2e0e27b0fefa244f8619d", 67, 3, 166, 233},
		{5, 20_000, 256, false, "985ab3530a0fa41b9e839d3ecc54d1f6dc17c51499df51592a7d1984bf46d210", 53, 2, 7, 56},
		{11, 5_000, 16, false, "0c6a137272e562718815946603d77d44f3780fd2b12cb81af9b8cb2a839ecfb0", 73, 3, 162, 235},
		{3, 20_000, 64, true, "4d43061bed5e901d25f18a46e48b7c9c1504194c1c26f35551017000a45102ee", 883, 3, 52, 233},
		{13, 5_000, 16, true, "3082a50de4b18e1b27f7d5f85db01a9f1104d3ca25910ff2dfc104585812d316", 247, 3, 58, 236},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed%d_n%d_t%d_d%v", tc.seed, tc.nodes, tc.target, tc.dist), func(t *testing.T) {
			t.Parallel()
			fi, err := core.ReadChunked(bytes.NewReader(hugeStream(t, int64(tc.seed), tc.nodes, tc.dist)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := forced(context.Background(), fi, tc.target)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res.Solution)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			digest := hex.EncodeToString(sum[:])
			if digest != tc.digest {
				t.Errorf("solution digest %s, want %s", digest, tc.digest)
			}
			if res.Replicas != tc.replicas || res.Rounds != tc.rounds || res.Moved != tc.moved || res.Pieces != tc.pieces {
				t.Errorf("replicas/rounds/moved/pieces %d/%d/%d/%d, want %d/%d/%d/%d",
					res.Replicas, res.Rounds, res.Moved, res.Pieces, tc.replicas, tc.rounds, tc.moved, tc.pieces)
			}
		})
	}
}

// TestSolveFlatWorkersAgree holds SolveFlat to the same answer at any
// worker count: with 1, 2 and 8 workers (a pool of 1, 2 and 8
// goroutines, each building and solving one piece at a time) the
// solution bytes and the run's counters must match. The rows are a
// 50k-node stream and a forced-piece run with a distance bound that
// retires replicas over several rounds.
func TestSolveFlatWorkersAgree(t *testing.T) {
	cases := []struct {
		seed, nodes, target int
		dist                bool
	}{
		{17, 50_000, 1024, false},
		{13, 5_000, 16, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed%d_n%d_t%d_d%v", tc.seed, tc.nodes, tc.target, tc.dist), func(t *testing.T) {
			stream := hugeStream(t, int64(tc.seed), tc.nodes, tc.dist)
			var want []byte
			var first *Result
			for _, workers := range []int{1, 2, 8} {
				fi, err := core.ReadChunked(bytes.NewReader(stream))
				if err != nil {
					t.Fatal(err)
				}
				res, err := solveFlat(context.Background(), fi, true, tc.target, coordinationRounds, workers)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				raw, err := json.Marshal(res.Solution)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					want, first = raw, res
					t.Logf("pieces %d, rounds %d, moved %d, replicas %d",
						res.Pieces, res.Rounds, res.Moved, res.Replicas)
					continue
				}
				if !bytes.Equal(raw, want) {
					t.Errorf("%d workers: solution differs from 1 worker's", workers)
				}
				if res.Pieces != first.Pieces || res.Rounds != first.Rounds || res.Moved != first.Moved ||
					res.LowerBound != first.LowerBound {
					t.Errorf("%d workers: pieces/rounds/moved/bound %d/%d/%d/%d, 1 worker %d/%d/%d/%d",
						workers, res.Pieces, res.Rounds, res.Moved, res.LowerBound,
						first.Pieces, first.Rounds, first.Moved, first.LowerBound)
				}
			}
		})
	}
}

// hashSink keeps BenchmarkSolveFlatHuge's hash from being optimised
// away.
var hashSink string

// BenchmarkSolveFlatHuge is the huge-tree operation in process: read a
// 250k-node chunked stream, hash it and solve it with verification on.
func BenchmarkSolveFlatHuge(b *testing.B) {
	stream := hugeStream(b, 7, 250_000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		fi, err := core.ReadChunked(bytes.NewReader(stream))
		if err != nil {
			b.Fatal(err)
		}
		hashSink = fi.CanonicalHash()
		if _, err := SolveFlat(context.Background(), fi, Options{Verify: true}); err != nil {
			b.Fatal(err)
		}
	}
}
