package core

import "errors"

// Sentinel verification errors; Verify wraps them with context, so use
// errors.Is to classify a failure.
var (
	// ErrStructure: replicas or assignments reference invalid nodes.
	ErrStructure = errors.New("invalid solution structure")
	// ErrCoverage: some client's requests are not fully served.
	ErrCoverage = errors.New("requests not fully served")
	// ErrCapacity: a server processes more than W requests.
	ErrCapacity = errors.New("server capacity exceeded")
	// ErrDistance: a client is served beyond dmax, or by a node that
	// is not one of its ancestors.
	ErrDistance = errors.New("distance or path constraint violated")
	// ErrPolicy: the Single policy is violated (client split across
	// servers).
	ErrPolicy = errors.New("access policy violated")
)

// Verify checks that sol is a feasible solution of in under policy pol.
// It validates, in order: structural sanity, path/distance eligibility
// of every assignment, exact coverage of every client, server
// capacities, and the Single policy's one-server rule. A nil error
// means the solution is feasible; the objective is sol.NumReplicas().
func Verify(in *Instance, pol Policy, sol *Solution) error {
	if err := in.Validate(); err != nil {
		return err
	}
	var sc Scratch
	return sc.Verify(in, pol, sol)
}
