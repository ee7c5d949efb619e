package mapping

import (
	"encoding/json"
	"fmt"
	"io"
)

// The JSON schema for mappings, used by the cmd/ tools and the wire, is
// the tags of Mapping, AppMapping and PlacedInterval:
//
//	{"apps": [{"intervals": [{"from":0,"to":2,"proc":1,"mode":0}, ...]}, ...]}

// EncodeJSON writes m to w, indented for a file a person reads.
func EncodeJSON(w io.Writer, m *Mapping) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// DecodeJSON parses a mapping from r. Structural validity against an
// instance is checked separately via Validate.
func DecodeJSON(r io.Reader) (Mapping, error) {
	var m Mapping
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Mapping{}, fmt.Errorf("mapping: decoding: %w", err)
	}
	return m, nil
}
