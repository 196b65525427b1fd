package tree

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"

	"replicatree/internal/wire"
)

// This file implements serialisation of trees: a JSON wire format used
// by the CLI tools, and Graphviz DOT export for visual inspection of
// instances and placements.

// NodeRecord is the wire representation of a node, in a tree's node
// list and in a chunked stream's chunks. The tree is encoded as a flat
// node list plus the root ID, which round-trips the tree exactly.
type NodeRecord struct {
	ID       NodeID `json:"id"`
	Parent   NodeID `json:"parent"` // -1 for the root
	Dist     int64  `json:"dist"`
	Requests int64  `json:"requests,omitempty"`
	Label    string `json:"label,omitempty"`
}

type jsonTree struct {
	Root  NodeID       `json:"root"`
	Nodes []NodeRecord `json:"nodes"`
}

// MarshalJSON encodes the tree as a flat node list.
func (t *Tree) MarshalJSON() ([]byte, error) {
	jt := jsonTree{Root: t.root, Nodes: make([]NodeRecord, t.Len())}
	for j := range jt.Nodes {
		jt.Nodes[j] = NodeRecord{
			ID:       NodeID(j),
			Parent:   t.Parents[j],
			Dist:     t.EdgeLens[j],
			Requests: t.Reqs[j],
			Label:    t.Label(NodeID(j)),
		}
	}
	return json.Marshal(jt)
}

// UnmarshalJSON decodes a tree from the flat node-list format and
// validates it. The canonical form is scanned in one pass (Scan); any
// other input, and any input that fails to build, is decoded again by
// encoding/json, the reference.
func (t *Tree) UnmarshalJSON(data []byte) error {
	s := wire.NewScanner(data)
	if nt := Scan(&s); s.End() {
		*t = *nt
		return nil
	}
	var jt jsonTree
	if err := json.Unmarshal(data, &jt); err != nil {
		return err
	}
	nt, err := build(jt.Root, jt.Nodes)
	if err != nil {
		return err
	}
	*t = *nt
	return nil
}

var (
	treeKeys = []string{"root", "nodes"}
	nodeKeys = []string{"id", "parent", "dist", "requests", "label"}
)

// maxPooledNodes bounds the staging slices kept for reuse, so one huge
// tree does not pin its staging memory for the life of the process.
const maxPooledNodes = 1 << 16

var stagingPool = sync.Pool{New: func() any { return new([]NodeRecord) }}

// Scan decodes, builds and validates the tree at s's position in one
// pass. It returns nil, with s declined, when the input is not in the
// canonical form (see package wire) or the tree does not build; the
// caller then decodes the bytes with encoding/json instead.
func Scan(s *wire.Scanner) *Tree {
	if !s.OK() {
		return nil
	}
	sp := stagingPool.Get().(*[]NodeRecord)
	nodes := (*sp)[:0]
	// json.Marshal writes at least 29 bytes per node, so a marshalled
	// node list fits this capacity without growing.
	if need := s.Remaining()/24 + 1; cap(nodes) < need {
		nodes = make([]NodeRecord, 0, need)
	}
	var root NodeID
	s.Object()
	var seen uint64
	for i := s.Field(treeKeys, &seen); i >= 0; i = s.Field(treeKeys, &seen) {
		if i == 0 {
			root = NodeID(s.Int(math.MinInt32, math.MaxInt32))
		} else {
			nodes = ScanNodes(s, nodes)
		}
	}
	var t *Tree
	if s.OK() {
		var err error
		if t, err = build(root, nodes); err != nil {
			s.Decline()
		}
	}
	if cap(nodes) <= maxPooledNodes {
		clear(nodes) // drop the labels
		*sp = nodes[:0]
		stagingPool.Put(sp)
	}
	return t
}

// ScanNodes appends the node list at s's position to nodes. Records
// start from zero, so a field a record omits reads as zero.
func ScanNodes(s *wire.Scanner, nodes []NodeRecord) []NodeRecord {
	s.Array()
	for first := true; s.Elem(first); first = false {
		var n NodeRecord
		s.Object()
		var seen uint64
		for i := s.Field(nodeKeys, &seen); i >= 0; i = s.Field(nodeKeys, &seen) {
			switch i {
			case 0:
				n.ID = NodeID(s.Int(math.MinInt32, math.MaxInt32))
			case 1:
				n.Parent = NodeID(s.Int(math.MinInt32, math.MaxInt32))
			case 2:
				n.Dist = s.Int(math.MinInt64, math.MaxInt64)
			case 3:
				n.Requests = s.Int(math.MinInt64, math.MaxInt64)
			case 4:
				n.Label = s.String()
			}
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// build is the tree builder both decode paths share, so they agree on
// every error: it places the wire nodes by ID, indexes each node's
// children in ID order (place), then validates the tree and records
// its visit orders.
func build(root NodeID, list []NodeRecord) (*Tree, error) {
	t, err := place(root, list)
	if err != nil {
		return nil, err
	}
	if err := t.order(); err != nil {
		return nil, err
	}
	return t, nil
}

// place is build up to the child index. The child index is
// built from the list, not from the placed arrays: a duplicated ID
// must show up as a child twice, and the ID it displaced, whose slot
// still holds zeros, as a child nowhere, for Validate to name the
// fault instead of accepting a client of node 0.
func place(root NodeID, list []NodeRecord) (*Tree, error) {
	n := len(list)
	t := &Tree{
		Parents:  make([]NodeID, n),
		EdgeLens: make([]int64, n),
		Reqs:     make([]int64, n),
		root:     root,
	}
	for _, jn := range list {
		if jn.ID < 0 || int(jn.ID) >= n {
			return nil, fmt.Errorf("tree: json node id %d out of range [0,%d)", jn.ID, n)
		}
		t.Parents[jn.ID] = jn.Parent
		t.EdgeLens[jn.ID] = jn.Dist
		t.Reqs[jn.ID] = jn.Requests
		// Labels are allocated by the first record that has one.
		if jn.Label != "" && t.Labels == nil {
			t.Labels = make([]string, n)
		}
		if t.Labels != nil {
			t.Labels[jn.ID] = jn.Label
		}
	}
	for _, jn := range list {
		if jn.Parent != None && (jn.Parent < 0 || int(jn.Parent) >= n) {
			return nil, fmt.Errorf("tree: json node %d has out-of-range parent %d", jn.ID, jn.Parent)
		}
	}
	t.index(n, func(i int) (NodeID, NodeID) { return list[i].ID, list[i].Parent })
	return t, nil
}

// DOT renders the tree in Graphviz format. Nodes listed in replicas are
// drawn filled; a nil set is fine.
func (t *Tree) DOT(replicas map[NodeID]bool) string {
	var b strings.Builder
	b.WriteString("digraph tree {\n  rankdir=BT;\n")
	for j := range t.Parents {
		id := NodeID(j)
		shape := "ellipse"
		label := t.Name(id)
		if t.IsClient(id) {
			shape = "box"
			label = fmt.Sprintf("%s\\nr=%d", label, t.Reqs[j])
		}
		attrs := fmt.Sprintf("shape=%s,label=\"%s\"", shape, label)
		if replicas[id] {
			attrs += ",style=filled,fillcolor=lightblue"
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", j, attrs)
	}
	for j, p := range t.Parents {
		if p != None {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", j, p, t.EdgeLens[j])
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String returns a compact single-line summary, useful in test output.
func (t *Tree) String() string {
	return fmt.Sprintf("tree{nodes=%d clients=%d arity=%d requests=%d}",
		t.Len(), t.NumClients(), t.Arity(), t.TotalRequests())
}
