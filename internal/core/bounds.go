package core

// CeilDiv returns ⌈a/b⌉ for a ≥ 0, b > 0.
func CeilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

// LowerBound returns a lower bound on the optimal number of replicas
// valid for both policies: Scratch.LowerBound on a fresh scratch.
func LowerBound(in *Instance) int {
	var sc Scratch
	return sc.LowerBound(in)
}

// VolumeLowerBound returns the plain bin-packing bound ⌈Σri / W⌉.
func VolumeLowerBound(in *Instance) int {
	return int(CeilDiv(in.Tree.TotalRequests(), in.W))
}

// Trivial returns the universal fallback solution R = {i ∈ C : ri > 0}
// with every client serving itself locally. It requires ri ≤ W for all
// clients (Instance.FitsLocally); otherwise it returns nil.
func Trivial(in *Instance) *Solution {
	if !in.FitsLocally() {
		return nil
	}
	sol := &Solution{}
	for _, i := range in.Tree.Clients() {
		if r := in.Tree.Requests(i); r > 0 {
			sol.AddReplica(i)
			sol.Assign(i, i, r)
		}
	}
	sol.Normalize()
	return sol
}
