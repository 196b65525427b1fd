package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"replicatree/internal/tree"
)

// This file defines the canonical instance hash: a deterministic
// binary serialisation of everything that influences a solve, fed
// through SHA-256. It is the cache key of the service layer — two
// instances with equal hashes are guaranteed to admit exactly the same
// solutions, so a cached placement can be replayed for either.
//
// The serialisation covers W, dmax and the tree (per node, in ID order:
// parent, edge length, request rate). It deliberately excludes node
// labels: labels are presentation-only and never consulted by a
// solver, so instances differing only in labels share a hash and a
// cache line. Node IDs are part of the hash — solutions reference
// nodes by ID, so isomorphic trees with different numberings must not
// collide (their solutions are not interchangeable).

// hashVersion is bumped whenever the serialisation below changes, so
// persisted caches can never mix incompatible key spaces.
const hashVersion = 1

// CanonicalHash returns the canonical SHA-256 of the instance as a
// lowercase hex string. It is deterministic across processes and
// platforms, and defined (as a hash of what is present) even for
// instances that fail Validate. The root's edge length is written as
// 0 whatever the tree stores: Dist reports Infinity for the root, and
// no solve reads the stored value.
func (in *Instance) CanonicalHash() string {
	h := sha256.New()
	// Fields collect in a block that goes to the hash whole: one Write
	// per 8-byte field would cost more than the hashing.
	var buf [4096]byte
	n := 0
	put := func(v int64) {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.BigEndian.PutUint64(buf[n:], uint64(v))
		n += 8
	}
	put(hashVersion)
	put(in.W)
	put(in.DMax)
	if t := in.Tree; t != nil {
		put(int64(t.Root()))
		put(int64(t.Len()))
		for j, p := range t.Parents {
			put(int64(p))
			if tree.NodeID(j) == t.Root() {
				put(0)
			} else {
				put(t.EdgeLens[j])
			}
			put(t.Reqs[j])
		}
	} else {
		put(int64(tree.None))
		put(0)
	}
	h.Write(buf[:n])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return hex.EncodeToString(sum[:])
}
