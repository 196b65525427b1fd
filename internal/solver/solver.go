// Package solver unifies every replica placement algorithm in the
// repository — the Single/Multiple heuristics, the exact
// branch-and-bound baselines and the LP-rounding heuristic — behind
// one contract, one registry and one
// parallel batch runner.
//
// The contract is a typed request/response pair: an Engine turns a
// Request (instance + policy constraint + budget + deadline)
// into a Report (solution + lower bound + gap + work + optimality
// proof), and publishes a Capabilities document through the registry
// so consumers select engines by declared properties instead of
// type-asserting optional interfaces. The "auto" engine is a
// capability-driven portfolio over the whole registry.
package solver
