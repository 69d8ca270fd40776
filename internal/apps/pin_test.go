package apps

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

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
