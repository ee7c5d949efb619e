package mapping_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/workload"
)

// The mirror types the mapping schema was once written with: one per
// type, holding only the lower-case keys. The schema is now the tags of
// Mapping, AppMapping and PlacedInterval, and must encode as these did.
type oldMappingJSON struct {
	Apps []oldAppMappingJSON `json:"apps"`
}

type oldAppMappingJSON struct {
	Intervals []oldIntervalJSON `json:"intervals"`
}

type oldIntervalJSON struct {
	From int `json:"from"`
	To   int `json:"to"`
	Proc int `json:"proc"`
	Mode int `json:"mode"`
}

func oldDocOf(m *mapping.Mapping) oldMappingJSON {
	doc := oldMappingJSON{}
	for a := range m.Apps {
		aj := oldAppMappingJSON{}
		for _, iv := range m.Apps[a].Intervals {
			aj.Intervals = append(aj.Intervals, oldIntervalJSON{From: iv.From, To: iv.To, Proc: iv.Proc, Mode: iv.Mode})
		}
		doc.Apps = append(doc.Apps, aj)
	}
	return doc
}

// TestMappingJSONRoundTrip: on random valid mappings, json.Marshal and
// EncodeJSON write the bytes the mirror types wrote, and DecodeJSON reads
// them back to the mapping.
func TestMappingJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		cfg := workload.DefaultConfig()
		cfg.Modes = 1 + rng.Intn(3)
		inst := workload.MustInstance(rng, cfg)
		m, err := workload.RandomMapping(rng, &inst)
		if err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(oldDocOf(&m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact, want) {
			t.Fatalf("trial %d: json.Marshal wrote %s, the mirror types %s", trial, compact, want)
		}

		var indented, wantIndented bytes.Buffer
		if err := mapping.EncodeJSON(&indented, &m); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&wantIndented)
		enc.SetIndent("", "  ")
		if err := enc.Encode(oldDocOf(&m)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(indented.Bytes(), wantIndented.Bytes()) {
			t.Fatalf("trial %d: EncodeJSON wrote %s, the mirror types %s", trial, indented.Bytes(), wantIndented.Bytes())
		}

		for _, doc := range [][]byte{compact, indented.Bytes()} {
			got, err := mapping.DecodeJSON(bytes.NewReader(doc))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("trial %d: decoded %v, encoded %v", trial, got.String(), m.String())
			}
		}
	}
}

// TestMappingJSONRejectsUnknownFields: DecodeJSON refuses a key the
// schema does not name, at every level.
func TestMappingJSONRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		`{"apps": [], "x": 1}`,
		`{"apps": [{"intervals": [], "x": 1}]}`,
		`{"apps": [{"intervals": [{"from": 0, "to": 0, "proc": 0, "mode": 0, "x": 1}]}]}`,
	} {
		if _, err := mapping.DecodeJSON(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), `unknown field "x"`) {
			t.Errorf("DecodeJSON(%s) = %v, want an unknown-field error", doc, err)
		}
	}
}
