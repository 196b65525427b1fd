package tree

import (
	"encoding/json"
	"strings"
	"testing"

	"replicatree/internal/wire"
)

// validNodes is sample() as a JSON node list, one node per line:
//
//	    root 0
//	   /    \
//	  a 1    b 2
//	 /  \      \
//	c1 3  c2 4  c3 5
const validNodes = `{"id":0,"parent":-1,"dist":0,"label":"root"},
{"id":1,"parent":0,"dist":1,"label":"a"},
{"id":2,"parent":0,"dist":2,"label":"b"},
{"id":3,"parent":1,"dist":3,"requests":5,"label":"c1"},
{"id":4,"parent":1,"dist":1,"requests":7,"label":"c2"},
{"id":5,"parent":2,"dist":4,"requests":2,"label":"c3"}`

// validationCases pins every validation error a JSON tree body can
// reach, with its exact message. Each body is validNodes with one line
// replaced (or removed, or added); Validate reports the first fault of
// its depth-first walk in child order.
var validationCases = []struct {
	name string
	root int
	edit func(lines []string) []string
	want string
}{
	{"self-parent", 0, set(2, `{"id":2,"parent":2,"dist":2}`),
		"tree: node 2 unreachable from root"},
	{"parent cycle", 0, set(1, `{"id":1,"parent":4,"dist":1}`),
		"tree: node 1 unreachable from root"},
	{"second root", 0, set(2, `{"id":2,"parent":-1,"dist":2}`),
		"tree: node 2 unreachable from root"},
	{"duplicate id", 0, set(2, `{"id":1,"parent":0,"dist":1}`),
		"tree: node 1 reached twice (cycle or shared child)"},
	{"duplicate id under two parents", 0, set(4, `{"id":3,"parent":2,"dist":1,"requests":7}`),
		"tree: child 3 of 1 has parent 2"},
	{"id out of range", 0, set(5, `{"id":9,"parent":2,"dist":4,"requests":2}`),
		"tree: json node id 9 out of range [0,6)"},
	{"negative id", 0, set(5, `{"id":-1,"parent":2,"dist":4,"requests":2}`),
		"tree: json node id -1 out of range [0,6)"},
	{"parent out of range", 0, set(5, `{"id":5,"parent":9,"dist":4,"requests":2}`),
		"tree: json node 5 has out-of-range parent 9"},
	{"negative parent", 0, set(5, `{"id":5,"parent":-2,"dist":4,"requests":2}`),
		"tree: json node 5 has out-of-range parent -2"},
	{"root out of range", 9, nil,
		"tree: root 9 out of range"},
	{"negative root", -1, nil,
		"tree: root -1 out of range"},
	{"root with a parent", 0, set(0, `{"id":0,"parent":2,"dist":0}`),
		"tree: root 0 has a parent"},
	{"root is a client", 0, func([]string) []string { return []string{`{"id":0,"parent":-1,"requests":3}`} },
		"tree: root must be an internal node (paper: r ∈ N)"},
	{"empty", 0, func([]string) []string { return nil },
		"tree: empty tree"},
	{"negative requests", 0, set(3, `{"id":3,"parent":1,"dist":3,"requests":-1}`),
		"tree: node 3 has negative requests -1"},
	{"negative requests at the root", 0, set(0, `{"id":0,"parent":-1,"requests":-4}`),
		"tree: node 0 has negative requests -4"},
	{"negative edge length", 0, set(3, `{"id":3,"parent":1,"dist":-2,"requests":5}`),
		"tree: node 3 has negative edge length -2"},
	{"infinite edge length", 0, set(3, `{"id":3,"parent":1,"dist":9223372036854775807,"requests":5}`),
		"tree: node 3 has infinite edge length"},
	{"internal node with requests", 0, set(1, `{"id":1,"parent":0,"dist":1,"requests":5}`),
		"tree: internal node 1 has requests 5"},
	{"internal root with requests", 0, set(0, `{"id":0,"parent":-1,"requests":5}`),
		"tree: internal node 0 has requests 5"},
	{"two faults, first in walk order", 0, func(l []string) []string {
		l = set(5, `{"id":5,"parent":2,"dist":4,"requests":-1}`)(l)
		return set(4, `{"id":4,"parent":1,"dist":-1,"requests":7}`)(l)
	}, "tree: node 4 has negative edge length -1"},
}

// set returns an edit that replaces line i of the node list.
func set(i int, line string) func([]string) []string {
	return func(l []string) []string {
		l = append([]string(nil), l...)
		l[i] = line
		return l
	}
}

func validationBody(root int, edit func([]string) []string) string {
	lines := strings.Split(validNodes, ",\n")
	if edit != nil {
		lines = edit(lines)
	}
	b, _ := json.Marshal(root)
	return `{"root":` + string(b) + `,"nodes":[` + strings.Join(lines, ",") + `]}`
}

// TestJSONValidationErrors decodes each case through the one-pass
// scanner and through encoding/json, the reference, and expects the
// same exact message from both.
func TestJSONValidationErrors(t *testing.T) {
	if body := validationBody(0, nil); json.Unmarshal([]byte(body), new(Tree)) != nil {
		t.Fatalf("the unedited body must decode: %s", body)
	}
	for _, ref := range []bool{false, true} {
		prev := wire.SetReferenceOnly(ref)
		for _, c := range validationCases {
			body := validationBody(c.root, c.edit)
			err := json.Unmarshal([]byte(body), new(Tree))
			if err == nil || err.Error() != c.want {
				t.Errorf("%s (reference only %v): got %v, want %q\n%s", c.name, ref, err, c.want, body)
			}
		}
		wire.SetReferenceOnly(prev)
	}
}
