package store_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// TestRoundTripEveryGenerator pins the core store contract: for every
// registered application generator, Encode followed by Decode yields a
// trace identical in metadata and op content, at more than one CPU
// count.
func TestRoundTripEveryGenerator(t *testing.T) {
	for _, info := range apps.All() {
		for _, cpus := range []int{8, 32} {
			tr, err := info.Generate(apps.Params{CPUs: cpus, Scale: 64})
			if err != nil {
				t.Fatalf("%s cpus=%d: %v", info.Name, cpus, err)
			}
			data := store.Encode(tr)
			got, err := store.Decode(data)
			if err != nil {
				t.Fatalf("%s cpus=%d: decode: %v", info.Name, cpus, err)
			}
			if !got.Equal(tr) {
				t.Errorf("%s cpus=%d: round-trip not identical", info.Name, cpus)
			}
			if ops := tr.Ops(); ops > 0 {
				t.Logf("%s cpus=%d: %d ops, %d bytes (%.2f B/op)",
					info.Name, cpus, ops, len(data), float64(len(data))/float64(ops))
			}
		}
	}
}

// TestRoundTripEdgeShapes covers stream shapes the generators do not
// produce: empty traces, empty per-CPU streams, maximal gaps, and args
// that go backwards (negative deltas).
func TestRoundTripEdgeShapes(t *testing.T) {
	traces := []*trace.Trace{
		{Name: "", CPUs: nil},
		{Name: "empty-cpus", CPUs: make([]trace.Stream, 5), Footprint: 1 << 30},
		{
			Name: "edges",
			CPUs: []trace.Stream{
				trace.StreamOf(
					trace.Op{Kind: trace.Read, Gap: 1<<32 - 1, Arg: 1<<32 - 1},
					trace.Op{Kind: trace.Write, Arg: 0}, // large negative delta
					trace.Op{Kind: trace.Pad, Gap: 7},
				),
				{},
				trace.StreamOf(trace.Op{Kind: trace.Barrier, Arg: 9}),
			},
			Barriers:  1,
			Locks:     2,
			Footprint: 12345,
		},
	}
	for _, tr := range traces {
		got, err := store.Decode(store.Encode(tr))
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		if !got.Equal(tr) {
			t.Errorf("%s: round-trip not identical", tr.Name)
		}
	}
}

func genTrace(t *testing.T) (*trace.Trace, store.Key) {
	t.Helper()
	info, err := apps.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	k := store.Key{App: "radix", CPUs: 32, Scale: 64}
	tr, err := info.Generate(apps.Params{CPUs: k.CPUs, Scale: k.Scale})
	if err != nil {
		t.Fatal(err)
	}
	return tr, k
}

// TestStoreSaveLoad exercises the content-addressed file cycle.
func TestStoreSaveLoad(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr, k := genTrace(t)
	if _, ok := s.Load(k); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Save(k, tr); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(k)
	if !ok {
		t.Fatal("saved trace not found")
	}
	if !got.Equal(tr) {
		t.Error("loaded trace differs from saved")
	}
	// Different key fields must address different files.
	for _, other := range []store.Key{
		{App: "radix", CPUs: 8, Scale: 64},
		{App: "radix", CPUs: 32, Scale: 32},
		{App: "radix", CPUs: 32, Scale: 64, Seed: 1},
		{App: "lu", CPUs: 32, Scale: 64},
	} {
		if other.Filename() == k.Filename() {
			t.Errorf("key %+v collides with %+v", other, k)
		}
		if _, ok := s.Load(other); ok {
			t.Errorf("key %+v unexpectedly hit", other)
		}
	}
}

// TestCorruptFileRegeneratesSilently is the corruption contract:
// truncated or bit-flipped store files act as misses (and are removed),
// and LoadOrGenerate transparently regenerates.
func TestCorruptFileRegeneratesSilently(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr, k := genTrace(t)
	if err := s.Save(k, tr); err != nil {
		t.Fatal(err)
	}
	path := s.Path(k)

	corrupt := func(name string, mutate func([]byte) []byte) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := s.Load(k); ok {
			t.Fatalf("%s: corrupt file loaded as a hit", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: corrupt file not removed", name)
		}
		// The miss regenerates and re-saves.
		got, hit, err := s.LoadOrGenerate(k, func() (*trace.Trace, error) { return tr, nil })
		if err != nil || hit {
			t.Fatalf("%s: LoadOrGenerate = hit=%v err=%v, want regeneration", name, hit, err)
		}
		if !got.Equal(tr) {
			t.Fatalf("%s: regenerated trace differs", name)
		}
		if _, ok := s.Load(k); !ok {
			t.Fatalf("%s: regenerated trace not re-saved", name)
		}
	}

	corrupt("truncated", func(d []byte) []byte { return d[:len(d)/2] })
	corrupt("bit-flip", func(d []byte) []byte {
		d[len(d)/3] ^= 0x40
		return d
	})
	corrupt("emptied", func(d []byte) []byte { return nil })
}

// TestLoadOrGenerateHitSkipsGenerator asserts the warm path never calls
// the generator.
func TestLoadOrGenerateHitSkipsGenerator(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr, k := genTrace(t)
	if err := s.Save(k, tr); err != nil {
		t.Fatal(err)
	}
	got, hit, err := s.LoadOrGenerate(k, func() (*trace.Trace, error) {
		t.Fatal("generator called on a warm store")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v, want warm hit", hit, err)
	}
	if !got.Equal(tr) {
		t.Error("warm trace differs")
	}
}

// TestVersionMismatchIsMiss ensures a file carrying a different format
// version byte is rejected even if its checksum is valid.
func TestVersionMismatchIsMiss(t *testing.T) {
	tr, _ := genTrace(t)
	data := store.Encode(tr)
	if _, err := store.Decode(data); err != nil {
		t.Fatal(err)
	}
	// Flip the version byte and fix up the checksum.
	data[4]++
	data = store.Reseal(data)
	if _, err := store.Decode(data); err == nil {
		t.Error("future-version file decoded")
	}
}

// hostileFile assembles a checksummed trace file from hand-built
// header fields, so structural validation past the CRC gate is
// reachable with arbitrary (including overflowing) counts.
func hostileFile(name string, counts, lens []uint64, payload []byte) []byte {
	buf := []byte("DTRC\x01")
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(len(counts))) // cpus
	buf = binary.AppendUvarint(buf, 0)                   // barriers
	buf = binary.AppendUvarint(buf, 0)                   // locks
	buf = binary.AppendUvarint(buf, 0)                   // footprint
	for _, c := range counts {
		buf = binary.AppendUvarint(buf, c)
	}
	for _, l := range lens {
		buf = binary.AppendUvarint(buf, l)
	}
	buf = append(buf, payload...)
	return store.Reseal(append(buf, 0, 0, 0, 0))
}

// TestDecodeRejectsOverflowingHeaders pins two regressions the review
// caught: bounds arithmetic on attacker-controlled counts and section
// lengths must not wrap uint64 into a panic — hostile but checksummed
// headers must come back as errors.
func TestDecodeRejectsOverflowingHeaders(t *testing.T) {
	cases := map[string][]byte{
		// counts[0]*3 wraps uint64 to 1, which would pass the minimum-
		// bytes check and reach make() with a negative length.
		"count-overflow": hostileFile("x", []uint64{0xAAAAAAAAAAAAAAAB}, []uint64{1}, []byte{0}),
		// The lens sum wraps uint64 so every intermediate total stays
		// small, inverting the section offsets.
		"length-sum-overflow": hostileFile("x",
			[]uint64{0, 0, 0}, []uint64{3, ^uint64(1), 5}, make([]byte, 6)),
		// A single section length larger than the payload.
		"length-over-payload": hostileFile("x", []uint64{0}, []uint64{1 << 40}, make([]byte, 6)),
	}
	for name, data := range cases {
		tr, err := store.Decode(data)
		if err == nil {
			t.Errorf("%s: hostile header decoded (%d cpus)", name, tr.NumCPUs())
		}
	}
}

// wideArgFile is a checksummed one-CPU file whose second arg, decoded
// as a zigzag delta, leaves uint32: args 2^32-1 then +1.
func wideArgFile() []byte {
	sec := []byte{byte(trace.Read), byte(trace.Read), 0, 0}
	sec = binary.AppendVarint(sec, 1<<32-1)
	sec = binary.AppendVarint(sec, 1)
	return hostileFile("wide", []uint64{2}, []uint64{uint64(len(sec))}, sec)
}

// TestDecodeRejectsWideArgs: in-memory args are 32 bits, so a section
// whose deltas walk an arg out of uint32 (up past 2^32-1, or below 0)
// is corrupt, which makes it a miss that deletes itself.
func TestDecodeRejectsWideArgs(t *testing.T) {
	below := []byte{byte(trace.Write), 0}
	below = binary.AppendVarint(below, -1)
	for name, data := range map[string][]byte{
		"above": wideArgFile(),
		"below": hostileFile("wide", []uint64{1}, []uint64{uint64(len(below))}, below),
	} {
		if tr, err := store.Decode(data); err == nil {
			t.Errorf("%s: decoded args %v", name, tr.CPUs[0].Args)
		}
	}

	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := store.Key{App: "wide", CPUs: 1, Scale: 1}
	if err := os.WriteFile(s.Path(k), wideArgFile(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k); ok {
		t.Fatal("wide-arg file loaded")
	}
	if _, err := os.Stat(s.Path(k)); !os.IsNotExist(err) {
		t.Errorf("wide-arg file not deleted on load: %v", err)
	}
}

// TestNilStoreIsDisabled: a nil *Store loads nothing and saves nothing.
func TestNilStoreIsDisabled(t *testing.T) {
	var s *store.Store
	tr, k := genTrace(t)
	if _, ok := s.Load(k); ok {
		t.Error("nil store hit")
	}
	if err := s.Save(k, tr); err != nil {
		t.Errorf("nil store save: %v", err)
	}
	got, hit, err := s.LoadOrGenerate(k, func() (*trace.Trace, error) { return tr, nil })
	if err != nil || hit || got != tr {
		t.Errorf("nil store LoadOrGenerate = %v,%v,%v", got, hit, err)
	}
}

// TestSaveIsAtomic: no partially written file is ever visible under the
// key's name, even mid-Save (approximated by checking the temp-file
// protocol leaves no temp debris behind).
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr, k := genTrace(t)
	if err := s.Save(k, tr); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != k.Filename() {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("store dir = %v, want exactly [%s]", names, k.Filename())
	}
	if filepath.Ext(k.Filename()) != ".trace" {
		t.Errorf("filename %q lacks .trace suffix", k.Filename())
	}
}

// TestEncodeIsDeterministic: same trace, same bytes (content addressing
// relies on it only for cleanliness, but nondeterminism would thrash
// CI's cached store).
func TestEncodeIsDeterministic(t *testing.T) {
	tr, _ := genTrace(t)
	a, b := store.Encode(tr), store.Encode(tr)
	if !bytes.Equal(a, b) {
		t.Error("two encodings of the same trace differ")
	}
}
