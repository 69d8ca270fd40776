package apps

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// resultPins are literal SHA-256 digests of the values the kernels
// compute at scale 4: fmm's particle potentials, raytrace's
// framebuffer and ocean's stream function, each hashed as the
// little-endian IEEE-754 bits of its floats in order. A change to how
// generation is scheduled must not move one bit of them.
var resultPins = map[string]string{
	"fmm":      "a82f5df91e746b1dff6df57fcdd022088e31a3905626751770b8de97d10904ce",
	"ocean":    "c75ad72a1c013df88d020ad700a20f504a42a6cd16d0cd968b3d42077de51118",
	"raytrace": "0df82d9ad93034eb0d3f3df2b667a53737edc2e48539e2990f856cc870659117",
}

// floatDigest hashes the bits of vs in order.
func floatDigest(vs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// complexParts flattens complex values into real, imaginary pairs.
func complexParts(cs []complex128) []float64 {
	out := make([]float64, 0, 2*len(cs))
	for _, c := range cs {
		out = append(out, real(c), imag(c))
	}
	return out
}

// generatePinned runs ocean, fmm and raytrace at scale 4 under the
// given GOMAXPROCS and returns their traces and result slices by app
// name.
func generatePinned(t *testing.T, procs int) (map[string]*trace.Trace, map[string][]float64) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	p := Params{CPUs: 32, Scale: 4}
	fmmTr, pot, _, _, err := GenerateFMM(p)
	if err != nil {
		t.Fatal(err)
	}
	oceanTr, psi, err := GenerateOcean(p)
	if err != nil {
		t.Fatal(err)
	}
	rayTr, fb, err := GenerateRaytrace(p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*trace.Trace{"fmm": fmmTr, "ocean": oceanTr, "raytrace": rayTr},
		map[string][]float64{"fmm": complexParts(pot), "ocean": psi, "raytrace": fb}
}

// TestResultsPinned proves the computed results do not move.
func TestResultsPinned(t *testing.T) {
	_, results := generatePinned(t, runtime.GOMAXPROCS(0))
	for name, vs := range results {
		if got := floatDigest(vs); got != resultPins[name] {
			t.Errorf("%s: result moved: digest %s, pinned %s", name, got, resultPins[name])
		}
	}
}

// tracePins are literal SHA-256 digests (see traceDigest) of every
// registered generator's trace at scale 64 on the default cluster. They
// hash the ops as the cursor returns them, not any in-memory or file
// layout, so a layout change passes them and a generator change fails
// them.
var tracePins = map[string]string{
	"barnes":    "eaa0b1b24fbe083992d930a6b60f87f6ae3cc87a655d526302b714405e47843b",
	"cholesky":  "02de278eb02c3be2963a80590e0e6d8283bd66ffbb4b71cc93c27ca8df72c9b7",
	"fmm":       "3b6162860cdfa39ada053f8d2f49b0f58a1ba625cc6c64fe97674d0f7297521b",
	"lu":        "1f7df87f38361933553020dd0b1b3e710a4aef3ec8edb89ef9d6ec38e8e2e3f6",
	"migratory": "decee4757f8c8b641a36a54a95e915e4d1e4f4a7b026021a48c63782963bcf0c",
	"ocean":     "308a71e40420fcd1fcea24d7034931b306d7fe381581d2d9d60be9772ceda74c",
	"radix":     "95e03d08e6a3492eaabfd47426a0355e50cb50b81616e7ba0e37439e549b77f7",
	"raytrace":  "f6ee7b2a8bf587c41da76245fb7f2eb5a3b237dc9cf5bb8197a2a601c8393e8a",
	"synthetic": "d2c9ceca1620bf97768514f133c3640c478111e22230d3dfcc984a79d15edb82",
}

// largeTracePins are literal digests of traces at the paper's input
// size (scale 1, seed 0) and at scale 2 with another seed, for the
// generators whose set-up runs at those sizes: raytrace's BVH is built
// over 8192 spheres at scale 1 but only 128 at scale 64, and lu's
// 16-wide blocks shrink to 2 at scale 64.
var largeTracePins = []struct {
	app    string
	scale  int
	seed   uint64
	digest string
}{
	{"lu", 1, 0, "383b87ce0fe05af46cb7540453c238f3d5ed12a956895f838787f32bee233c60"},
	{"ocean", 1, 0, "b980a9ff510191a47462b14b72c2a477b57390ce71698db123b597c0ab6e6371"},
	{"fmm", 1, 0, "615183922b5d7529080b3737ff32a5408209e547d828704921f6cc02a781c8e3"},
	{"raytrace", 1, 0, "f8824d3c5b7899a84b1fa6f23ee7c203d551b3aba2864aa038387bc95e3c0d7f"},
	{"fmm", 2, 3, "936590d1921abfb127c580883a510be3f135a0717e2c5a2d2f0d0cca055c2d3c"},
	{"raytrace", 2, 3, "663854567f702f3762f885444e45bd624cda536a6a3d99b026d14ba200949cf2"},
}

// traceDigest hashes a trace's name (length first), CPU count,
// Barriers, Locks and Footprint as little-endian uint64s, then each
// CPU's op count and rows read through its cursor: the kind byte, then
// gap and arg as little-endian uint32.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(tr.Name)))
	h.Write(b[:])
	h.Write([]byte(tr.Name))
	for _, v := range []uint64{uint64(len(tr.CPUs)), uint64(tr.Barriers), uint64(tr.Locks), tr.Footprint} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	var row [9]byte
	for i := range tr.CPUs {
		binary.LittleEndian.PutUint64(b[:], uint64(tr.CPUs[i].Len()))
		h.Write(b[:])
		for c := tr.CPUs[i].Cursor(); ; {
			op, ok := c.Next()
			if !ok {
				break
			}
			row[0] = byte(op.Kind)
			binary.LittleEndian.PutUint32(row[1:], op.Gap)
			binary.LittleEndian.PutUint32(row[5:], op.Arg)
			h.Write(row[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTracesPinned proves no generator's ops move at scale 64.
func TestTracesPinned(t *testing.T) {
	cpus := config.DefaultCluster().TotalCPUs()
	for _, info := range All() {
		tr, err := info.Generate(Params{CPUs: cpus, Scale: 64})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		got := traceDigest(tr)
		if want, ok := tracePins[info.Name]; !ok {
			t.Errorf("%s: no pin (digest %s)", info.Name, got)
		} else if got != want {
			t.Errorf("%s: trace moved: digest %s, pinned %s", info.Name, got, want)
		}
	}
}

// TestTracesPinnedLarge proves the paper-size traces do not move.
func TestTracesPinnedLarge(t *testing.T) {
	cpus := config.DefaultCluster().TotalCPUs()
	for _, pin := range largeTracePins {
		info, err := ByName(pin.app)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := info.Generate(Params{CPUs: cpus, Scale: pin.scale, Seed: pin.seed})
		if err != nil {
			t.Fatalf("%s scale %d seed %d: %v", pin.app, pin.scale, pin.seed, err)
		}
		if got := traceDigest(tr); got != pin.digest {
			t.Errorf("%s scale %d seed %d: trace moved: digest %s, pinned %s",
				pin.app, pin.scale, pin.seed, got, pin.digest)
		}
	}
}
