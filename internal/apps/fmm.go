package apps

import (
	"fmt"
	"math/cmplx"

	"repro/internal/trace"
)

// fmmApp implements a two-dimensional fast multipole method for the
// Laplace (log) kernel, the algorithm of the SPLASH-2 fmm benchmark: a
// uniform quadtree over the unit square, upward multipole pass (P2M,
// M2M), interaction-list translations (M2L), downward local pass (L2L,
// L2P), and direct near-field interactions (P2P). The math is real —
// tests verify the fast potentials against direct summation.
type fmmApp struct {
	n      int // particles
	levels int // quadtree depth; leaves at level levels-1
	p      int // multipole terms
	steps  int
	cpus   int
	seed   uint64
}

const (
	fmmPartBytes = 64  // pos(16) vel(16) q(8) pot(16) pad
	fmmExpBytes  = 160 // p complex coefficients (16B each) for p=10
	fmmTerms     = 10  // p, the multipole terms
)

func newFMM(p Params) *fmmApp {
	p = p.norm()
	n := 4096 / p.Scale
	if n < 64 {
		n = 64
	}
	levels := 5 // 256 leaf boxes
	for (1<<(2*(levels-1)))*8 > n && levels > 2 {
		levels--
	}
	return &fmmApp{n: n, levels: levels, p: fmmTerms, steps: 2, cpus: p.CPUs, seed: p.Seed}
}

// boxesAt returns the box count per side and total at a level.
func boxesAt(level int) (side, total int) {
	side = 1 << uint(level)
	return side, side * side
}

// level describes the shared expansion arrays of one quadtree level.
type fmmLevel struct {
	side  int
	mpole *Rec // multipole expansions, one per box
	local *Rec // local expansions, one per box
	mvals [][]complex128
	lvals [][]complex128
}

// GenerateFMM builds the trace and returns the computed particle
// potentials for verification.
func GenerateFMM(p Params) (*trace.Trace, []complex128, []complex128, []float64, error) {
	a := newFMM(p)
	w := NewWorld("fmm", a.cpus)

	parts := w.AllocRec("particles", a.n, fmmPartBytes)
	pos := make([]complex128, a.n)
	q := make([]float64, a.n)
	pot := make([]complex128, a.n)

	lv := make([]*fmmLevel, a.levels)
	for l := 0; l < a.levels; l++ {
		side, total := boxesAt(l)
		lv[l] = &fmmLevel{
			side:  side,
			mpole: w.AllocRec(fmt.Sprintf("mpole%d", l), total, fmmExpBytes),
			local: w.AllocRec(fmt.Sprintf("local%d", l), total, fmmExpBytes),
			mvals: make([][]complex128, total),
			lvals: make([][]complex128, total),
		}
		for b := 0; b < total; b++ {
			lv[l].mvals[b] = make([]complex128, a.p+1)
			lv[l].lvals[b] = make([]complex128, a.p+1)
		}
	}

	r := newRNG(31415 + a.seed)
	w.Serial(func(c *Ctx) {
		for i := 0; i < a.n; i++ {
			pos[i] = complex(r.float64(), r.float64())
			q[i] = r.float64() + 0.1
			c.TouchRec(parts, i, 0, fmmPartBytes, true)
		}
		c.Compute(a.n * 4)
	})
	w.Phase()

	leafLevel := a.levels - 1
	leafSide, leafTotal := boxesAt(leafLevel)

	// ownership: Morton-contiguous chunks of boxes per level
	owner := func(l, box int) int {
		_, total := boxesAt(l)
		per := (total + a.cpus - 1) / a.cpus
		o := box / per
		if o >= a.cpus {
			o = a.cpus - 1
		}
		return o
	}
	boxOf := func(z complex128) int {
		x := int(real(z) * float64(leafSide))
		y := int(imag(z) * float64(leafSide))
		if x >= leafSide {
			x = leafSide - 1
		}
		if y >= leafSide {
			y = leafSide - 1
		}
		if x < 0 {
			x = 0
		}
		if y < 0 {
			y = 0
		}
		return y*leafSide + x
	}
	centerOf := func(l, box int) complex128 {
		side, _ := boxesAt(l)
		x, y := box%side, box/side
		h := 1.0 / float64(side)
		return complex((float64(x)+0.5)*h, (float64(y)+0.5)*h)
	}

	// Parallel first touch: each owner touches its leaf boxes'
	// expansions and (approximately) its particle range.
	w.ParallelIndep(func(c *Ctx) {
		for l := 0; l < a.levels; l++ {
			_, total := boxesAt(l)
			for b := 0; b < total; b++ {
				if owner(l, b) != c.CPU {
					continue
				}
				c.TouchRec(lv[l].mpole, b, 0, fmmExpBytes, true)
				c.TouchRec(lv[l].local, b, 0, fmmExpBytes, true)
			}
		}
		per := (a.n + a.cpus - 1) / a.cpus
		lo, hi := c.CPU*per, (c.CPU+1)*per
		if hi > a.n {
			hi = a.n
		}
		for i := lo; i < hi; i++ {
			c.TouchRec(parts, i, 0, fmmPartBytes, false)
		}
		c.Compute(64)
	})
	w.Barrier()

	// boxParts[b] lists particle indices in leaf box b (host-side; the
	// indices themselves model the box particle lists of the original,
	// whose traffic is dominated by the particle records).
	binParticles := func() [][]int {
		bp := make([][]int, leafTotal)
		for i := 0; i < a.n; i++ {
			b := boxOf(pos[i])
			bp[b] = append(bp[b], i)
		}
		return bp
	}

	for step := 0; step < a.steps; step++ {
		boxParts := binParticles()

		// Reset expansions.
		for l := 0; l < a.levels; l++ {
			for b := range lv[l].mvals {
				for k := range lv[l].mvals[b] {
					lv[l].mvals[b][k] = 0
					lv[l].lvals[b][k] = 0
				}
			}
		}

		// --- P2M: leaf multipoles from their particles.
		w.ParallelIndep(func(c *Ctx) {
			for b := 0; b < leafTotal; b++ {
				if owner(leafLevel, b) != c.CPU {
					continue
				}
				zc := centerOf(leafLevel, b)
				m := lv[leafLevel].mvals[b]
				for _, i := range boxParts[b] {
					c.TouchRec(parts, i, 0, 24, false)
					d := pos[i] - zc
					m[0] += complex(q[i], 0)
					pw := complex(1, 0)
					for k := 1; k <= a.p; k++ {
						pw *= d
						m[k] -= complex(q[i], 0) * pw / complex(float64(k), 0)
					}
					c.Compute(4 * a.p)
				}
				c.TouchRec(lv[leafLevel].mpole, b, 0, fmmExpBytes, true)
			}
		})
		w.Barrier()

		// --- M2M: upward pass.
		for l := leafLevel - 1; l >= 0; l-- {
			ll := l
			w.ParallelIndep(func(c *Ctx) {
				side, total := boxesAt(ll)
				for b := 0; b < total; b++ {
					if owner(ll, b) != c.CPU {
						continue
					}
					x, y := b%side, b/side
					pc := centerOf(ll, b)
					acc := lv[ll].mvals[b]
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							cb := (2*y+dy)*(side*2) + (2*x + dx)
							c.TouchRec(lv[ll+1].mpole, cb, 0, fmmExpBytes, false)
							shiftM2M(lv[ll+1].mvals[cb], acc, centerOf(ll+1, cb)-pc, a.p)
							c.Compute(3 * a.p * a.p)
						}
					}
					c.TouchRec(lv[ll].mpole, b, 0, fmmExpBytes, true)
				}
			})
			w.Barrier()
		}

		// --- M2L: interaction lists at every level below the root.
		for l := 1; l <= leafLevel; l++ {
			ll := l
			w.ParallelIndep(func(c *Ctx) {
				side, total := boxesAt(ll)
				for b := 0; b < total; b++ {
					if owner(ll, b) != c.CPU {
						continue
					}
					x, y := b%side, b/side
					px, py := x/2, y/2
					zc := centerOf(ll, b)
					acc := lv[ll].lvals[b]
					for ny := (py - 1) * 2; ny < (py+2)*2; ny++ {
						for nx := (px - 1) * 2; nx < (px+2)*2; nx++ {
							if nx < 0 || ny < 0 || nx >= side || ny >= side {
								continue
							}
							if nx >= x-1 && nx <= x+1 && ny >= y-1 && ny <= y+1 {
								continue // adjacent: near field
							}
							sb := ny*side + nx
							c.TouchRec(lv[ll].mpole, sb, 0, fmmExpBytes, false)
							shiftM2L(lv[ll].mvals[sb], acc, centerOf(ll, sb), zc, a.p)
							c.Compute(4 * a.p * a.p)
						}
					}
					c.TouchRec(lv[ll].local, b, 0, fmmExpBytes, true)
				}
			})
			w.Barrier()
		}

		// --- L2L: downward pass.
		for l := 1; l <= leafLevel; l++ {
			ll := l
			w.ParallelIndep(func(c *Ctx) {
				side, total := boxesAt(ll)
				for b := 0; b < total; b++ {
					if owner(ll, b) != c.CPU {
						continue
					}
					x, y := b%side, b/side
					pb := (y/2)*(side/2) + x/2
					c.TouchRec(lv[ll-1].local, pb, 0, fmmExpBytes, false)
					shiftL2L(lv[ll-1].lvals[pb], lv[ll].lvals[b],
						centerOf(ll, b)-centerOf(ll-1, pb), a.p)
					c.TouchRec(lv[ll].local, b, 0, fmmExpBytes, true)
					c.Compute(2 * a.p * a.p)
				}
			})
			w.Barrier()
		}

		// --- L2P + P2P: evaluate local expansions and near field.
		w.ParallelIndep(func(c *Ctx) {
			for b := 0; b < leafTotal; b++ {
				if owner(leafLevel, b) != c.CPU {
					continue
				}
				x, y := b%leafSide, b/leafSide
				zc := centerOf(leafLevel, b)
				loc := lv[leafLevel].lvals[b]
				c.TouchRec(lv[leafLevel].local, b, 0, fmmExpBytes, false)
				for _, i := range boxParts[b] {
					c.TouchRec(parts, i, 0, 24, false)
					t := pos[i] - zc
					var phi complex128
					pw := complex(1, 0)
					for k := 0; k <= a.p; k++ {
						phi += loc[k] * pw
						pw *= t
					}
					c.Compute(4 * a.p)
					// near field: the 3x3 neighborhood of leaf boxes
					for ny := y - 1; ny <= y+1; ny++ {
						for nx := x - 1; nx <= x+1; nx++ {
							if nx < 0 || ny < 0 || nx >= leafSide || ny >= leafSide {
								continue
							}
							for _, jp := range boxParts[ny*leafSide+nx] {
								if jp == i {
									continue
								}
								c.TouchRec(parts, jp, 0, 24, false)
								d := pos[i] - pos[jp]
								phi += complex(q[jp], 0) * cmplx.Log(d)
								c.Compute(24)
							}
						}
					}
					pot[i] = phi
					c.TouchRec(parts, i, 32, 16, true)
				}
			}
		})
		w.Barrier()

		// --- Jiggle particle positions for the next step (local).
		if step+1 < a.steps {
			w.ParallelIndep(func(c *Ctx) {
				per := (a.n + a.cpus - 1) / a.cpus
				lo, hi := c.CPU*per, (c.CPU+1)*per
				if hi > a.n {
					hi = a.n
				}
				jr := newRNG(uint64(step)*977 + uint64(c.CPU) + 1)
				for i := lo; i < hi; i++ {
					dx := (jr.float64() - 0.5) * 0.01
					dy := (jr.float64() - 0.5) * 0.01
					z := pos[i] + complex(dx, dy)
					if real(z) < 0 || real(z) >= 1 {
						z = complex(real(pos[i]), imag(z))
					}
					if imag(z) < 0 || imag(z) >= 1 {
						z = complex(real(z), imag(pos[i]))
					}
					pos[i] = z
					c.TouchRec(parts, i, 0, 16, true)
					c.Compute(8)
				}
			})
			w.Barrier()
		}
	}

	t, err := w.Finish()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("fmm: %w", err)
	}
	return t, pot, pos, q, nil
}

// shiftM2M translates a child multipole (about its center) into the
// parent's accumulator; s is child center minus parent center.
func shiftM2M(child, parent []complex128, s complex128, p int) {
	parent[0] += child[0]
	// precompute s powers
	sp := make([]complex128, p+1)
	sp[0] = 1
	for i := 1; i <= p; i++ {
		sp[i] = sp[i-1] * s
	}
	for l := 1; l <= p; l++ {
		v := -child[0] * sp[l] / complex(float64(l), 0)
		for k := 1; k <= l; k++ {
			v += child[k] * sp[l-k] * complex(binomTable[l-1][k-1], 0)
		}
		parent[l] += v
	}
}

// shiftM2L converts a multipole about c into a local expansion about z0.
func shiftM2L(m, local []complex128, c, z0 complex128, p int) {
	d := c - z0
	id := 1 / d
	// b0
	v0 := m[0] * cmplx.Log(-d)
	ip := id
	for k := 1; k <= p; k++ {
		sign := 1.0
		if k&1 == 1 {
			sign = -1
		}
		v0 += m[k] * ip * complex(sign, 0)
		ip *= id
	}
	local[0] += v0
	// bl for l >= 1: the log term contributes -a0/(l d^l); each a_k
	// contributes (-1)^k C(l+k-1, k-1) / d^(l+k).
	ipl := complex(1, 0)
	for l := 1; l <= p; l++ {
		ipl *= id
		v := -m[0] * ipl / complex(float64(l), 0)
		ipk := ipl
		for k := 1; k <= p; k++ {
			ipk *= id
			sign := 1.0
			if k&1 == 1 {
				sign = -1
			}
			v += m[k] * ipk * complex(sign*binomTable[l+k-1][k-1], 0)
		}
		local[l] += v
	}
}

// shiftL2L translates a parent local expansion to a child center; s is
// child center minus parent center.
func shiftL2L(parent, child []complex128, s complex128, p int) {
	sp := make([]complex128, p+1)
	sp[0] = 1
	for i := 1; i <= p; i++ {
		sp[i] = sp[i-1] * s
	}
	for j := 0; j <= p; j++ {
		var v complex128
		for l := j; l <= p; l++ {
			v += parent[l] * complex(binomTable[l][j], 0) * sp[l-j]
		}
		child[j] += v
	}
}

// binomTable[n][k] is binom(n, k) for every n the translations of a
// p = fmmTerms expansion need (shiftM2L reaches C(2p-1, p-1)), computed
// once by binom itself so the floats are the ones it returns.
var binomTable = func() [][]float64 {
	t := make([][]float64, 2*fmmTerms)
	for n := range t {
		t[n] = make([]float64, n+1)
		for k := range t[n] {
			t[n][k] = binom(n, k)
		}
	}
	return t
}()

// binom returns the binomial coefficient C(n, k) as a float64.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	v := 1.0
	for i := 0; i < k; i++ {
		v = v * float64(n-i) / float64(i+1)
	}
	return v
}

func init() {
	register(Info{
		Name:        "fmm",
		Description: "Fast Multipole N-body simulation (2D Laplace)",
		Input:       "4K particles, 2 steps, p=10",
		ReadsSeed:   true,
		Generate: func(p Params) (*trace.Trace, error) {
			t, _, _, _, err := GenerateFMM(p)
			return t, err
		},
	})
}
