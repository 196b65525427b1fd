package solver

import (
	"fmt"

	"replicatree/internal/cert"
	"replicatree/internal/core"
)

// Certify builds the verifiable placement certificate for a solve
// outcome: the canonical instance commitment, the report's solution as
// the feasibility witness, the subtree-sum lower-bound attestation and
// — when the report proves optimality — an optimality attestation.
//
// The mapping lives here, not in internal/cert, on purpose: cert must
// stay solver-free so the offline checker (cmd/replicaverify) links no
// solving code. solver → cert is the permitted import direction.
//
// Certification is off the hot path by design: it hashes the instance
// and copies nothing lazily, so callers invoke it at response/settle
// time, never inside Engine.Solve. A report produced under
// Request.NoBound carries bound 0; Certify recomputes the bound
// from the instance in that case so the issued certificate always
// survives its own verification.
func Certify(in *core.Instance, rep *Report) (*cert.Certificate, error) {
	if in == nil || rep == nil || rep.Solution == nil {
		return nil, fmt.Errorf("solver: cannot certify a nil instance or an empty report")
	}
	bound := rep.LowerBound
	gap := rep.Gap
	if bound == 0 {
		bound = core.LowerBound(in)
		gap = 0
		if bound > 0 {
			gap = float64(rep.Solution.NumReplicas()-bound) / float64(bound)
		}
	}
	c := &cert.Certificate{
		Version:      cert.Version,
		InstanceHash: in.CanonicalHash(),
		Engine:       rep.Engine,
		Policy:       rep.Policy.String(),
		Replicas:     rep.Solution.NumReplicas(),
		Work:         rep.Work,
		Bound:        cert.BoundAttestation{Kind: cert.BoundKindSubtreeSum, Value: bound},
		Gap:          gap,
		Witness:      rep.Solution,
	}
	if rep.Proved {
		c.Optimality = &cert.OptimalityAttestation{Engine: rep.Engine, Work: rep.Work}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("solver: built an invalid certificate (bug): %w", err)
	}
	return c, nil
}
