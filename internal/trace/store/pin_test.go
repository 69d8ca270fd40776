package store_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// encodePins are literal SHA-256 digests of store.Encode for every
// registered generator at scale 64 on the default cluster. They were
// generated once and must never be regenerated for an in-memory layout
// change: the on-disk format is content-addressed by FormatVersion, so
// a file written by any earlier build stays valid exactly as long as
// these bytes do not move. An intended format change bumps
// FormatVersion and the CI cache key together with these pins.
var encodePins = map[string]string{
	"barnes":    "d928c35a74fc58d986e26522666b823cfa78ac33125a067c3345d7ea2315a124",
	"cholesky":  "c47d9458442705097a0190a7f2e4b59b3e6764f866a671049dfa4e2823d6a734",
	"fmm":       "b550e1a77b9976cf8ea5ad2531ad1d880390a3d7a17f1f4a31ef6dfd2ad99214",
	"lu":        "ed7bbe28c17b04b7d3097626ccb01d4b1d3b8ad76cdde7c1ce491f451901d32c",
	"migratory": "69500217ad35f8f64c143089aaa0bd795d3718016fe94592eb05a8a2d5a94780",
	"ocean":     "68981cdbf89a32b4243a9bda98b09ee8c55199fe7d5f6cc8aa955fe980aa14bd",
	"radix":     "6214cba3acc2b0a1ab7d8baf6e4c5238c7ab01ea465f2e9b0336018f20772459",
	"raytrace":  "000361cf8a61c80155a83f1a7f53f8f932bce7fb29427816d80ffa474f884317",
	"synthetic": "94bfb706f96ffd3c5460e42256e8b22d084c1a8a7f435eb905f0890f12db5488",
}

// largePins are literal digests of store.Encode at the paper's input
// size (scale 1, seed 0) and at scale 2 with another seed, for the
// generators whose set-up runs at those sizes: raytrace's BVH is built
// over 8192 spheres at scale 1 but only 128 at scale 64. They pin the
// trace bytes exactly as encodePins do.
var largePins = []struct {
	app    string
	scale  int
	seed   uint64
	digest string
}{
	{"ocean", 1, 0, "592ed6dccf28d79a1a7a858492309475f33e440b41929c530395d3c00a53db36"},
	{"fmm", 1, 0, "aaf3fc71994f95630280711607a7d1c1e5afa1eae55f457474c8ca16eb364ada"},
	{"raytrace", 1, 0, "28a39de02b39c2e1522d039d9985ee7652ca96a6d16840d3d2ef81377383a749"},
	{"fmm", 2, 3, "82b747983fb9d7fb796502145d2390f6451271fba59fe84ab8a7f1d4eb134402"},
	{"raytrace", 2, 3, "c1e9686b6bca350a990d085622a1ba259c9d1817e185290eb21fc8fe70ce6ca3"},
}

// edgePin is the digest of store.Encode(edgePinTrace()).
const edgePin = "b9e17cb415353b11af10feab41158dcd2716c63c7e3688bed9d1b97008e1e89e"

// edgePinTrace exercises the width boundaries of the gap and arg
// columns: gaps around the one-byte escape and at the uint32 maximum,
// and an arg at the uint32 maximum followed by a large negative delta.
func edgePinTrace() *trace.Trace {
	return &trace.Trace{
		Name: "edge-pin",
		CPUs: []trace.Stream{
			trace.StreamOf(
				trace.Op{Kind: trace.Read, Gap: 0, Arg: 3},
				trace.Op{Kind: trace.Write, Gap: 254, Arg: 1<<32 - 1},
				trace.Op{Kind: trace.Read, Gap: 255, Arg: 0},
				trace.Op{Kind: trace.Barrier, Gap: 256, Arg: 7},
				trace.Op{Kind: trace.Pad, Gap: 1<<32 - 1},
			),
			trace.StreamOf(
				trace.Op{Kind: trace.Lock, Gap: 255, Arg: 2},
				trace.Op{Kind: trace.Unlock, Gap: 1<<32 - 1, Arg: 2},
				trace.Op{Kind: trace.Barrier, Arg: 7},
			),
		},
		Barriers:  1,
		Locks:     3,
		Footprint: 1 << 20,
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestEncodePinned proves the on-disk bytes do not move: every
// generator's encoding, and one hand-built edge trace, hash to the
// literal digests above.
func TestEncodePinned(t *testing.T) {
	cpus := config.DefaultCluster().TotalCPUs()
	for _, info := range apps.All() {
		tr, err := info.Generate(apps.Params{CPUs: cpus, Scale: 64})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		got := digest(store.Encode(tr))
		if want, ok := encodePins[info.Name]; !ok {
			t.Errorf("%s: no pin (digest %s)", info.Name, got)
		} else if got != want {
			t.Errorf("%s: encoding moved: digest %s, pinned %s", info.Name, got, want)
		}
	}
	edge := edgePinTrace()
	enc := store.Encode(edge)
	if got := digest(enc); got != edgePin {
		t.Errorf("edge trace: encoding moved: digest %s, pinned %s", got, edgePin)
	}
	back, err := store.Decode(enc)
	if err != nil {
		t.Fatalf("edge trace: %v", err)
	}
	if err := back.Validate(); err != nil || !back.Equal(edge) {
		t.Errorf("edge trace: round trip not identical (validate: %v)", err)
	}
}

// TestEncodePinnedLarge proves the paper-size trace bytes do not move.
func TestEncodePinnedLarge(t *testing.T) {
	cpus := config.DefaultCluster().TotalCPUs()
	for _, pin := range largePins {
		info, err := apps.ByName(pin.app)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := info.Generate(apps.Params{CPUs: cpus, Scale: pin.scale, Seed: pin.seed})
		if err != nil {
			t.Fatalf("%s scale %d seed %d: %v", pin.app, pin.scale, pin.seed, err)
		}
		if got := digest(store.Encode(tr)); got != pin.digest {
			t.Errorf("%s scale %d seed %d: encoding moved: digest %s, pinned %s",
				pin.app, pin.scale, pin.seed, got, pin.digest)
		}
	}
}
