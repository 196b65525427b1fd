package solver

import "errors"

// Sentinel errors of the solver API. Engines and the registry wrap them
// with context, so classify with errors.Is rather than string
// matching; the HTTP service maps each to a dedicated status.
var (
	// ErrUnknownSolver: the requested name is not in the registry
	// (HTTP 404).
	ErrUnknownSolver = errors.New("solver: unknown solver")
	// ErrPolicyUnsupported: the engine cannot satisfy the request's
	// constraints — a policy it does not solve, or a distance-bounded
	// instance handed to a NoD-only engine (HTTP 422).
	ErrPolicyUnsupported = errors.New("solver: request unsupported by engine")
	// ErrInfeasible: the instance admits no solution under the
	// engine's policy; no solver choice can help (HTTP 422).
	ErrInfeasible = errors.New("solver: instance infeasible")
	// ErrVerification: an engine returned an answer that breaks the
	// instance's constraints or the request's excluded servers. It is
	// an internal fault, never the request's (HTTP 500).
	ErrVerification = errors.New("solver: solution failed verification")
)

// taggedError attaches a sentinel to an underlying error without
// changing its rendered message: Error() is the underlying text
// verbatim (so problem details name the engine and the cause), while
// errors.Is sees both the original chain and the sentinel.
type taggedError struct {
	err      error
	sentinel error
}

func (t *taggedError) Error() string   { return t.err.Error() }
func (t *taggedError) Unwrap() []error { return []error{t.err, t.sentinel} }

// tag wraps err with sentinel unless it already carries it.
func tag(err, sentinel error) error {
	if err == nil || errors.Is(err, sentinel) {
		return err
	}
	return &taggedError{err: err, sentinel: sentinel}
}
