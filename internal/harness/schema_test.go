package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRecordSchemaPinned round-trips a record through the JSON layer
// and pins the schema field: every emitted record names the exact
// document version, a decoded record carries it back unchanged, and
// the constant itself cannot drift silently — consumers (the serve
// result keys, downstream tooling) key on the literal string.
func TestRecordSchemaPinned(t *testing.T) {
	if RecordSchema != "repro-record/v1" {
		t.Fatalf("RecordSchema = %q; bumping it orphans every memoized result and "+
			"breaks downstream consumers — if intentional, update this pin and the serve layer together", RecordSchema)
	}

	var buf bytes.Buffer
	r, err := RunByName("fig5", opts(&buf, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := RecordsJSON(r.Records())
	if err != nil {
		t.Fatal(err)
	}

	// Every record in the emitted document declares the schema...
	var recs []Record
	if err := json.Unmarshal(out, &recs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("no records emitted")
	}
	for i, rec := range recs {
		if rec.Schema != RecordSchema {
			t.Errorf("record %d: schema = %q, want %q", i, rec.Schema, RecordSchema)
		}
	}

	// ...as the raw field name "schema", first in the object, so a
	// reader can dispatch on it without decoding the whole record.
	first := strings.TrimSpace(string(out))
	if !strings.HasPrefix(first, "[\n  {\n    \"schema\": \"repro-record/v1\"") {
		t.Errorf("schema is not the leading field:\n%.120s", first)
	}

	// And the round trip is lossless: re-marshalling the decoded
	// records reproduces the emitted bytes.
	again, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), out) {
		t.Error("records did not round-trip to identical JSON")
	}
}
