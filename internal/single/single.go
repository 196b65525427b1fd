// Package single implements the Single-policy algorithms of the paper:
// Algorithm 1 (single-gen), a (Δ+1)-approximation for Single with
// distance constraints (a Δ-approximation without them), and
// Algorithm 2 (single-nod), a 2-approximation for Single-NoD.
// Single is NP-hard in the strong sense even on binary trees without
// distance constraints (Theorem 1), so these approximations are the
// best practical tools the paper offers for this policy. Around
// Algorithm 2 it adds the conclusion's "push servers towards the root"
// direction: the pass-up variant, the better of the two (Best) and
// the PushUp post-pass.
//
// Session holds the one implementation of every algorithm here, each a
// walk over the tree's stored postorder. Programs run them through the
// registered solver engines (single-gen, single-nod, single-passup,
// single-best, single-pushup), whose seam validates the instance and
// verifies every answer.
package single
