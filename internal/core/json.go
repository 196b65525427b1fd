package core

import (
	"encoding/json"
	"fmt"
	"math"

	"replicatree/internal/tree"
	"replicatree/internal/wire"
)

// Wire format for instances: dmax is omitted (or null) for NoD.
type instanceJSON struct {
	Tree *tree.Tree `json:"tree"`
	W    int64      `json:"w"`
	DMax *int64     `json:"dmax,omitempty"`
}

// MarshalJSON encodes the instance; an absent "dmax" means no distance
// constraint.
func (in *Instance) MarshalJSON() ([]byte, error) {
	j := instanceJSON{Tree: in.Tree, W: in.W}
	if !in.NoD() {
		d := in.DMax
		j.DMax = &d
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes and validates an instance. The canonical form
// is scanned in one pass (ScanInstance); any other input, and any
// input that fails validation, is decoded again by encoding/json, the
// reference.
func (in *Instance) UnmarshalJSON(data []byte) error {
	s := wire.NewScanner(data)
	if ni := ScanInstance(&s); s.End() {
		*in = *ni
		return nil
	}
	var j instanceJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	ni := Instance{Tree: j.Tree, W: j.W, DMax: NoDistance}
	if j.DMax != nil {
		ni.DMax = *j.DMax
	}
	if err := ni.Validate(); err != nil {
		return fmt.Errorf("core: invalid instance: %w", err)
	}
	*in = ni
	return nil
}

var instanceKeys = []string{"tree", "w", "dmax"}

// ScanInstance decodes and validates the instance at s's position in
// one pass. It returns nil, with s declined, when the input is not in
// the canonical form (see package wire) or the instance is invalid;
// the caller then decodes the bytes with encoding/json instead.
func ScanInstance(s *wire.Scanner) *Instance {
	in := &Instance{DMax: NoDistance}
	s.Object()
	var seen uint64
	for i := s.Field(instanceKeys, &seen); i >= 0; i = s.Field(instanceKeys, &seen) {
		switch i {
		case 0:
			in.Tree = tree.Scan(s)
		case 1:
			in.W = s.Int(math.MinInt64, math.MaxInt64)
		case 2:
			in.DMax = s.Int(math.MinInt64, math.MaxInt64)
		}
	}
	if !s.OK() || in.Validate() != nil {
		s.Decline()
		return nil
	}
	return in
}
