// Package cert implements verifiable placement certificates: compact,
// independently checkable receipts for solved replica placement
// instances. A Certificate commits to the canonical instance hash and
// carries a feasibility witness (the placement itself, replayable
// through the allocation-free core.Scratch.Verify), a lower-bound
// attestation (the subtree-sum bound, recomputable from the instance
// in O(tree)), the engine/policy/work provenance and — when the solve
// proved optimality, by an exact search or a met bound — an optimality
// attestation.
//
// Certificates have a canonical deterministic byte encoding (Encode)
// hashed with SHA-256; batches of certificates commit to one binary
// Merkle root (Tree) so any single result carries an O(log n)
// inclusion proof (Proof).
//
// The package deliberately imports only internal/core and
// internal/tree — never internal/solver — so an offline checker
// (cmd/replicaverify) can validate certificates without linking any
// solving code: verification cost is O(tree), not a re-solve. The
// service layer maps solver.Report onto a Certificate; this package
// never sees a Report.
package cert

import (
	"errors"
	"fmt"

	"replicatree/internal/core"
)

// Version is the certificate format version, bumped whenever the
// canonical encoding of Encode changes. Verifiers reject versions
// they do not understand rather than guessing.
const Version = 1

// BoundKindSubtreeSum is the only lower-bound attestation kind today:
// the distance-aware subtree-sum bound of core.LowerBound, which the
// decomp path reports too.
const BoundKindSubtreeSum = "subtree-sum"

// Sentinel verification errors. Verification wraps them with context;
// classify with errors.Is.
var (
	// ErrMalformed: the certificate is structurally invalid (bad
	// version, unknown policy or bound kind, missing witness, replica
	// count not matching the witness, malformed hash).
	ErrMalformed = errors.New("cert: malformed certificate")
	// ErrInstanceHash: the certificate commits to a different instance
	// than the one presented for verification.
	ErrInstanceHash = errors.New("cert: instance hash mismatch")
	// ErrWitness: the feasibility witness does not verify against the
	// instance (moved replica, over-capacity server, uncovered client,
	// distance violation…). Wraps the core sentinel that failed.
	ErrWitness = errors.New("cert: feasibility witness rejected")
	// ErrBound: the attested lower bound does not equal the bound
	// recomputed from the instance (inflated or deflated).
	ErrBound = errors.New("cert: lower-bound attestation rejected")
	// ErrGap: the reported gap is inconsistent with the replica count
	// and the attested bound.
	ErrGap = errors.New("cert: gap inconsistent")
	// ErrProof: an inclusion proof does not connect the certificate to
	// the claimed Merkle root (forged sibling, wrong index, truncated
	// or overlong path).
	ErrProof = errors.New("cert: inclusion proof rejected")
)

// Certificate is one solve's verifiable receipt.
type Certificate struct {
	// Version is the certificate format version (see Version).
	Version int `json:"version"`
	// InstanceHash is the canonical instance hash the certificate
	// commits to (core.Instance.CanonicalHash, lowercase hex).
	InstanceHash string `json:"instance_hash"`
	// Engine names the engine that produced the solution.
	Engine string `json:"engine"`
	// Policy is the access policy the witness obeys: "Single" or
	// "Multiple".
	Policy string `json:"policy"`
	// Replicas is the claimed objective value; it must equal the
	// witness's replica count.
	Replicas int `json:"replicas"`
	// Work counts the engine's elementary search steps (0 when
	// untracked). Provenance only — not independently checkable.
	Work int64 `json:"work,omitempty"`
	// Bound is the lower-bound attestation.
	Bound BoundAttestation `json:"bound"`
	// Gap is (Replicas − Bound.Value) / Bound.Value, the honestly
	// reported optimality gap (0 when the bound is met; decomp-path
	// certificates report their structural gap here rather than
	// hiding it).
	Gap float64 `json:"gap"`
	// Optimality, when present, attests that the solve proved the
	// witness optimal for the policy and names the engine whose answer
	// it is. A proof is either an exact search (provenance, not an
	// independently checkable proof — see the trust model in
	// DESIGN.md) or a met bound, Replicas == Bound.Value, which the
	// verifier rechecks by itself, with no trust needed.
	Optimality *OptimalityAttestation `json:"optimality,omitempty"`
	// Witness is the feasibility witness: the full placement, in
	// normalized form (sorted replicas, merged assignments).
	Witness *core.Solution `json:"witness"`
}

// BoundAttestation is the lower-bound block of a certificate: the
// claimed bound plus the data needed to recheck it. For the
// subtree-sum kind the recheck input is the instance itself (pinned
// by InstanceHash): a verifier recomputes the bound in O(tree) with
// core.Scratch.LowerBound and demands equality.
type BoundAttestation struct {
	// Kind names the bound (BoundKindSubtreeSum).
	Kind string `json:"kind"`
	// Value is the attested lower bound on the optimal replica count.
	Value int `json:"value"`
}

// OptimalityAttestation records which engine's answer the solve proved
// optimal and how much search work the proof consumed.
type OptimalityAttestation struct {
	// Engine names the exact engine that proved optimality or, under
	// the auto portfolio, the winning candidate whose count met the
	// bound or an exact peer's proved optimum.
	Engine string `json:"engine"`
	// Work is the consumed search budget, when tracked.
	Work int64 `json:"work,omitempty"`
}

// policyNumber maps the wire policy name onto core.Policy.
func policyNumber(name string) (core.Policy, error) {
	switch name {
	case core.Single.String():
		return core.Single, nil
	case core.Multiple.String():
		return core.Multiple, nil
	default:
		return 0, fmt.Errorf("%w: unknown policy %q", ErrMalformed, name)
	}
}

// Validate checks the certificate's internal consistency — everything
// that can be checked without the instance: version, policy and bound
// kind, hash shape, witness presence, the replica count matching the
// witness, and the gap matching (Replicas, Bound). It is the first
// stage of every verification.
func (c *Certificate) Validate() error {
	if c.Version != Version {
		return fmt.Errorf("%w: unsupported version %d (verifier speaks %d)", ErrMalformed, c.Version, Version)
	}
	if _, err := decodeHash(c.InstanceHash); err != nil {
		return err
	}
	if _, err := policyNumber(c.Policy); err != nil {
		return err
	}
	if c.Bound.Kind != BoundKindSubtreeSum {
		return fmt.Errorf("%w: unknown bound kind %q", ErrMalformed, c.Bound.Kind)
	}
	if c.Witness == nil {
		return fmt.Errorf("%w: missing feasibility witness", ErrMalformed)
	}
	if c.Replicas != c.Witness.NumReplicas() {
		return fmt.Errorf("%w: claims %d replicas but witness places %d",
			ErrMalformed, c.Replicas, c.Witness.NumReplicas())
	}
	if err := checkGap(c.Replicas, c.Bound.Value, c.Gap); err != nil {
		return err
	}
	return nil
}

// gapTolerance absorbs float re-derivation noise; gaps are quotients
// of small integers, so any real tampering is far outside it.
const gapTolerance = 1e-9

func checkGap(replicas, bound int, gap float64) error {
	want := 0.0
	if bound > 0 {
		want = float64(replicas-bound) / float64(bound)
	}
	diff := gap - want
	if diff < -gapTolerance || diff > gapTolerance {
		return fmt.Errorf("%w: reported gap %.9f, recomputed %.9f from %d replicas over bound %d",
			ErrGap, gap, want, replicas, bound)
	}
	return nil
}
