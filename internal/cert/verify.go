package cert

import (
	"fmt"

	"replicatree/internal/core"
)

// Offline certificate verification. The verifier holds the instance
// (pinned by the certificate's canonical hash) and replays:
//
//  1. structural consistency (Validate),
//  2. the instance commitment — CanonicalHash(instance) must equal
//     the certificate's InstanceHash,
//  3. the feasibility witness — the placement re-verified through the
//     allocation-free core.Scratch.Verify,
//  4. the lower-bound attestation — the subtree-sum bound recomputed
//     with core.Scratch.LowerBound must equal the attested value
//     (catching both inflated and deflated bounds),
//  5. the gap — recomputed from (Replicas, Bound.Value).
//
// Total cost is O(tree): hashing, one verify sweep and one bound
// sweep. No solver is consulted — which is the point.

// VerifyAgainst fully verifies the certificate against an instance,
// however it was read (JSON or the chunked stream). A nil error means:
// the witness is a feasible placement of exactly Replicas replicas for
// this instance under Policy, and the optimum cannot be below
// Bound.Value.
func (c *Certificate) VerifyAgainst(in *core.Instance) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if err := in.Validate(); err != nil {
		return fmt.Errorf("%w: presented instance invalid: %v", ErrMalformed, err)
	}
	if got := in.CanonicalHash(); got != c.InstanceHash {
		return fmt.Errorf("%w: certificate commits to %s, presented instance hashes to %s",
			ErrInstanceHash, c.InstanceHash, got)
	}
	pol, err := policyNumber(c.Policy)
	if err != nil {
		return err
	}
	var sc core.Scratch
	if err := sc.Verify(in, pol, c.Witness); err != nil {
		return fmt.Errorf("%w: %v", ErrWitness, err)
	}
	if got := sc.LowerBound(in); got != c.Bound.Value {
		return fmt.Errorf("%w: attested %d, recomputed %d", ErrBound, c.Bound.Value, got)
	}
	return nil
}

// VerifyInclusionOf is the one-call batch check: the certificate's
// leaf hash is recomputed from its canonical encoding and checked
// against the root through the proof. It does not touch the instance;
// pair it with VerifyAgainst for the full replay.
func (c *Certificate) VerifyInclusionOf(rootHex string, p *Proof) error {
	leaf, err := c.Hash()
	if err != nil {
		return err
	}
	return VerifyInclusion(rootHex, leaf, p)
}
