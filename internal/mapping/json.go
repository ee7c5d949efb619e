package mapping

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON schema for mappings, used by the cmd/ tools:
//
//	{"apps": [{"intervals": [{"from":0,"to":2,"proc":1,"mode":0}, ...]}, ...]}
type mappingJSON struct {
	Apps []appMappingJSON `json:"apps"`
}

type appMappingJSON struct {
	Intervals []intervalJSON `json:"intervals"`
}

type intervalJSON struct {
	From int `json:"from"`
	To   int `json:"to"`
	Proc int `json:"proc"`
	Mode int `json:"mode"`
}

func docOf(m *Mapping) mappingJSON {
	doc := mappingJSON{}
	for a := range m.Apps {
		aj := appMappingJSON{}
		for _, iv := range m.Apps[a].Intervals {
			aj.Intervals = append(aj.Intervals, intervalJSON{From: iv.From, To: iv.To, Proc: iv.Proc, Mode: iv.Mode})
		}
		doc.Apps = append(doc.Apps, aj)
	}
	return doc
}

// EncodeJSON writes m to w, indented for a file a person reads.
func EncodeJSON(w io.Writer, m *Mapping) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docOf(m))
}

// MarshalJSON returns the compact encoding of m, for embedding in a
// response document.
func MarshalJSON(m *Mapping) ([]byte, error) {
	return json.Marshal(docOf(m))
}

// DecodeJSON parses a mapping from r. Structural validity against an
// instance is checked separately via Validate.
func DecodeJSON(r io.Reader) (Mapping, error) {
	var doc mappingJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Mapping{}, fmt.Errorf("mapping: decoding: %w", err)
	}
	m := Mapping{}
	for _, aj := range doc.Apps {
		am := AppMapping{}
		for _, ij := range aj.Intervals {
			am.Intervals = append(am.Intervals, PlacedInterval{From: ij.From, To: ij.To, Proc: ij.Proc, Mode: ij.Mode})
		}
		m.Apps = append(m.Apps, am)
	}
	return m, nil
}
