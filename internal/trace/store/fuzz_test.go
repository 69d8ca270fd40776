package store_test

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// FuzzDecode feeds the binary decoder hostile bytes: any input must
// either decode to a structurally sound trace or return an error —
// never panic, never over-allocate past what the payload backs, and
// decoding must be deterministic. Valid encodings seed the corpus so
// mutation explores the interesting boundary just past the checksum
// (Reseal keeps mutated headers reachable).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DTRC\x01"))
	for _, name := range []string{"radix", "migratory"} {
		info, err := apps.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		tr, err := info.Generate(apps.Params{CPUs: 8, Scale: 64})
		if err != nil {
			f.Fatal(err)
		}
		enc := store.Encode(tr)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		// A resealed tail-chop passes the CRC but is structurally short.
		f.Add(store.Reseal(enc[:len(enc)-8]))
	}
	f.Add(store.Reseal([]byte("DTRC\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01xxxx")))
	// An arg delta that leaves uint32 must be rejected, not truncated.
	f.Add(wideArgFile())
	// Args on both sides of the 16-bit escape.
	f.Add(store.Encode(&trace.Trace{Name: "escaped-args", CPUs: []trace.Stream{trace.StreamOf(
		trace.Op{Kind: trace.Read, Arg: 65534},
		trace.Op{Kind: trace.Write, Arg: 65535},
		trace.Op{Kind: trace.Read, Arg: 65536},
		trace.Op{Kind: trace.Read, Arg: 1<<32 - 1},
	)}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr1, err1 := store.Decode(data)
		tr2, err2 := store.Decode(store.Reseal(append([]byte(nil), data...)))
		// Resealing only bypasses the checksum; the structural verdict
		// on the same body must not change.
		if (err1 == nil) != (err2 == nil) && err1 != nil && err1.Error() != "store: checksum mismatch" {
			t.Fatalf("reseal changed verdict: %v vs %v", err1, err2)
		}
		for _, tr := range []*trace.Trace{tr1, tr2} {
			if tr == nil {
				continue
			}
			// A successful decode must be internally consistent: equal
			// column lengths, one big gap per gap escape, one big arg per
			// arg escape, in-range kinds.
			for cpu := range tr.CPUs {
				s := &tr.CPUs[cpu]
				if len(s.Kinds) != len(s.Gaps) || len(s.Kinds) != len(s.Args) {
					t.Fatalf("cpu %d: ragged columns %d/%d/%d", cpu, len(s.Kinds), len(s.Gaps), len(s.Args))
				}
				if n := bytes.Count(s.Gaps, []byte{trace.GapEscape}); n != len(s.BigGaps) {
					t.Fatalf("cpu %d: %d escapes but %d big gaps", cpu, n, len(s.BigGaps))
				}
				escapes := 0
				for _, a := range s.Args {
					if a == trace.ArgEscape {
						escapes++
					}
				}
				if escapes != len(s.BigArgs) {
					t.Fatalf("cpu %d: %d arg escapes but %d big args", cpu, escapes, len(s.BigArgs))
				}
				for _, k := range s.Kinds {
					if int(k) >= trace.KindCount {
						t.Fatalf("cpu %d: out-of-range kind %d survived decode", cpu, k)
					}
				}
			}
			// And re-encoding a decoded trace must round-trip exactly.
			back, err := store.Decode(store.Encode(tr))
			if err != nil {
				t.Fatalf("re-encode of decoded trace rejected: %v", err)
			}
			if !back.Equal(tr) {
				t.Fatal("decode->encode->decode not a fixed point")
			}
		}
	})
}
