package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestCanonicalPinned pins the literal cache key of one Figure 5
// query. The server hashes Canonical into every result key, so a change
// to this string orphans every stored result; make one only on purpose.
func TestCanonicalPinned(t *testing.T) {
	q := Query{Experiment: "FIG5", Apps: []string{"radix", "lu"}, Systems: []string{" CCNUMA ", "migrep"}, Scale: 64, Seed: 7}
	const want = "experiment=fig5\x00apps=radix,lu\x00systems=ccnuma,migrep\x00fabric=\x00scale=64\x00scales=\x00seed=7"
	if got := q.Canonical(); got != want {
		t.Fatalf("Canonical() = %q, want %q", got, want)
	}
}

// decodeQuery decodes a JSON query document the way the server's POST
// path does, rejecting unknown fields.
func decodeQuery(b []byte) (Query, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var q Query
	err := dec.Decode(&q)
	return q, err
}

// FuzzQuery checks the two properties the result cache rests on:
// Normalize is idempotent, and two normalized queries that both pass
// Validate share a Canonical key only when they are equal. A collision
// would answer one query with another's stored result. Inputs are JSON
// query documents, as the server's POST endpoint receives them.
func FuzzQuery(f *testing.F) {
	for _, seed := range [][2]string{
		// Spellings the server tests alias onto one cache entry.
		{`{"experiment":"fig5","apps":["radix"],"systems":["CCNUMA"],"scale":64,"seed":7}`,
			`{"experiment":"FIG5","apps":["radix"],"systems":[" ccnuma "],"scale":64,"seed":7}`},
		{`{"experiment":"fig5","apps":["radix"],"systems":["ccnuma"],"scale":64,"seed":1}`,
			`{"experiment":"FIG5","apps":[" radix "],"systems":["CCNUMA"],"scale":64,"seed":1}`},
		// Near misses that must keep distinct keys.
		{`{"experiment":"fig5","apps":["radix","lu"]}`, `{"experiment":"fig5","apps":["lu","radix"]}`},
		{`{"experiment":"scalesweep","scales":[8,16]}`, `{"experiment":"scalesweep","scale":8,"scales":[8,16]}`},
		{`{"experiment":"fig5","fabric":"ring","scale":8}`, `{"experiment":"fig5","scale":8,"seed":8}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		qa, errA := decodeQuery(a)
		qb, errB := decodeQuery(b)
		if errA != nil || errB != nil {
			t.Skip("not a query document")
		}
		na, nb := qa.Normalize(), qb.Normalize()
		for _, n := range []Query{na, nb} {
			if again := n.Normalize(); !reflect.DeepEqual(again, n) {
				t.Fatalf("Normalize is not idempotent: %#v -> %#v", n, again)
			}
		}
		if na.Validate() != nil || nb.Validate() != nil {
			return
		}
		if !reflect.DeepEqual(na, nb) && na.Canonical() == nb.Canonical() {
			t.Fatalf("distinct queries share key %q:\n%#v\n%#v", na.Canonical(), na, nb)
		}
	})
}

// TestParseScales pins the scale-list syntax the -scales flag and the
// server's scales= parameter share: spaces around entries are allowed,
// and any entry that is not an integer rejects the list.
func TestParseScales(t *testing.T) {
	got, err := ParseScales("8, 16,32")
	if err != nil || !reflect.DeepEqual(got, []int{8, 16, 32}) {
		t.Errorf(`ParseScales("8, 16,32") = %v, %v; want [8 16 32]`, got, err)
	}
	for _, bad := range []string{"8,x", "8,,16", "1.5"} {
		if got, err := ParseScales(bad); err == nil {
			t.Errorf("ParseScales(%q) = %v, want an error", bad, got)
		}
	}
}
