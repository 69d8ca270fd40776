package apps

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// oceanApp implements the core of the SPLASH-2 ocean simulation: a
// red-black Gauss-Seidel multigrid solver for the stream-function Poisson
// equations, driven by a time loop that updates vorticity fields between
// solves. Grids are full two-dimensional row-major arrays partitioned
// into 2D processor subgrids (the "non-contiguous" layout), so subgrid
// boundaries straddle pages — the placement behaviour whose traffic the
// paper measures.
type oceanApp struct {
	n     int // interior points per side (grid is (n+2)^2)
	steps int
	cpus  int

	rowsP, colsP int
	levels       int
}

func newOcean(p Params) *oceanApp {
	p = p.norm()
	n := 258 / p.Scale
	// Round down to 2^k+2-friendly interior so multigrid coarsens
	// evenly.
	k := 2
	for (1<<(k+1)) <= n && k < 16 {
		k++
	}
	n = 1 << k
	a := &oceanApp{n: n, steps: 3, cpus: p.CPUs}
	a.rowsP = 1
	for a.rowsP*a.rowsP < p.CPUs {
		a.rowsP++
	}
	for p.CPUs%a.rowsP != 0 {
		a.rowsP--
	}
	a.colsP = p.CPUs / a.rowsP
	a.levels = 1
	for (n>>a.levels) >= 8 && (n>>a.levels) >= 2*a.rowsP {
		a.levels++
	}
	return a
}

// grid is one (n+2)x(n+2) shared array.
type grid struct {
	a    *F64
	side int
}

func (g *grid) idx(i, j int) int { return i*g.side + j }

// ownerRange returns the interior row/col range of cpu in a side-point
// grid.
func (a *oceanApp) ownerRange(cpu, interior int) (r0, r1, c0, c1 int) {
	pr, pc := cpu/a.colsP, cpu%a.colsP
	rows := interior / a.rowsP
	cols := interior / a.colsP
	if rows == 0 {
		rows = 1
	}
	if cols == 0 {
		cols = 1
	}
	r0 = 1 + pr*rows
	r1 = r0 + rows
	if pr == a.rowsP-1 {
		r1 = interior + 1
	}
	c0 = 1 + pc*cols
	c1 = c0 + cols
	if pc == a.colsP-1 {
		c1 = interior + 1
	}
	if r0 > interior {
		r0, r1 = 1, 0 // empty
	}
	if c0 > interior {
		c0, c1 = 1, 0
	}
	return
}

// relaxColor performs one red-black relaxation half-sweep on u for the
// cpu's subgrid, recording the stencil accesses: sequential row segments
// coalesce; the rows above/below are separate touches.
func (a *oceanApp) relaxColor(c *Ctx, u, rhs *grid, interior int, color int, h2 float64) {
	r0, r1, c0, c1 := a.ownerRange(c.CPU, interior)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			if (i+j)&1 != color {
				continue
			}
			// 5-point stencil: real Gauss-Seidel update.
			k := u.idx(i, j)
			v := 0.25 * (u.a.Data[k-1] + u.a.Data[k+1] +
				u.a.Data[k-u.side] + u.a.Data[k+u.side] - h2*rhs.a.Data[k])
			c.r.Access(u.a.Addr(k-1), false)
			c.r.Access(u.a.Addr(k+1), false)
			c.r.Access(u.a.Addr(k-u.side), false)
			c.r.Access(u.a.Addr(k+u.side), false)
			c.r.Access(rhs.a.Addr(k), false)
			c.r.Access(u.a.Addr(k), true)
			u.a.Data[k] = v
			c.Compute(6)
		}
	}
}

// restrict transfers the residual to the coarser grid (full weighting).
func (a *oceanApp) restrictTo(c *Ctx, fine, frhs, coarse, crhs *grid, fInterior int) {
	cInterior := fInterior / 2
	r0, r1, c0, c1 := a.ownerRange(c.CPU, cInterior)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			fi, fj := 2*i, 2*j
			k := fine.idx(fi, fj)
			res := frhs.a.Data[k] - (4*fine.a.Data[k] - fine.a.Data[k-1] -
				fine.a.Data[k+1] - fine.a.Data[k-fine.side] - fine.a.Data[k+fine.side])
			c.r.Access(fine.a.Addr(k), false)
			c.r.Access(fine.a.Addr(k-1), false)
			c.r.Access(fine.a.Addr(k+1), false)
			c.r.Access(frhs.a.Addr(k), false)
			ck := coarse.idx(i, j)
			c.r.Access(crhs.a.Addr(ck), true)
			c.r.Access(coarse.a.Addr(ck), true)
			crhs.a.Data[ck] = res
			coarse.a.Data[ck] = 0
			c.Compute(8)
		}
	}
}

// prolong adds the coarse correction back into the fine grid.
func (a *oceanApp) prolong(c *Ctx, coarse, fine *grid, fInterior int) {
	cInterior := fInterior / 2
	r0, r1, c0, c1 := a.ownerRange(c.CPU, cInterior)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			v := coarse.a.Data[coarse.idx(i, j)]
			c.r.Access(coarse.a.Addr(coarse.idx(i, j)), false)
			for di := 0; di < 2; di++ {
				for dj := 0; dj < 2; dj++ {
					fk := fine.idx(2*i-di, 2*j-dj)
					c.r.Access(fine.a.Addr(fk), true)
					fine.a.Data[fk] += v
				}
			}
			c.Compute(6)
		}
	}
}

// GenerateOcean builds the trace and returns the final stream-function
// grid for verification.
func GenerateOcean(p Params) (*trace.Trace, []float64, error) {
	a := newOcean(p)
	w := NewWorld("ocean", a.cpus)
	side := a.n + 2

	alloc := func(name string, interior int) *grid {
		s := interior + 2
		return &grid{a: w.AllocF64(name, s*s), side: s}
	}
	psi := alloc("psi", a.n)
	vort := alloc("vort", a.n)
	rhs := alloc("rhs", a.n)
	// Multigrid hierarchy for psi.
	gs := make([]*grid, a.levels)
	rs := make([]*grid, a.levels)
	gs[0], rs[0] = psi, rhs
	for l := 1; l < a.levels; l++ {
		gs[l] = alloc(fmt.Sprintf("mg%d", l), a.n>>l)
		rs[l] = alloc(fmt.Sprintf("mgr%d", l), a.n>>l)
	}

	// Sequential init: a smooth vorticity field.
	w.Serial(func(c *Ctx) {
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				x, y := float64(i)/float64(side), float64(j)/float64(side)
				vort.a.Data[vort.idx(i, j)] = math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
			}
		}
		c.TouchRange(vort.a.Addr(0), side*side*8, true)
		c.TouchRange(psi.a.Addr(0), side*side*8, true)
		c.Compute(side * side / 2)
	})
	w.Phase()

	// Parallel first touch of each subgrid.
	w.ParallelIndep(func(c *Ctx) {
		r0, r1, c0, c1 := a.ownerRange(c.CPU, a.n)
		for i := r0; i < r1; i++ {
			c.TouchRange(psi.a.Addr(psi.idx(i, c0)), (c1-c0)*8, false)
			c.TouchRange(vort.a.Addr(vort.idx(i, c0)), (c1-c0)*8, false)
			c.TouchRange(rhs.a.Addr(rhs.idx(i, c0)), (c1-c0)*8, true)
		}
		c.Compute((r1 - r0) * (c1 - c0) / 4)
	})
	w.Barrier()

	h2 := 1.0 / float64(a.n*a.n)
	for step := 0; step < a.steps; step++ {
		// Advect vorticity into the Poisson right-hand side (Jacobi
		// smoothing of vort plus copy to rhs). This segment stays
		// Parallel: it smooths vort in place, reading neighbours that
		// another CPU writes, so the CPU order is part of the result.
		w.Parallel(func(c *Ctx) {
			r0, r1, c0, c1 := a.ownerRange(c.CPU, a.n)
			for i := r0; i < r1; i++ {
				for j := c0; j < c1; j++ {
					k := vort.idx(i, j)
					v := 0.2 * (vort.a.Data[k] + vort.a.Data[k-1] + vort.a.Data[k+1] +
						vort.a.Data[k-vort.side] + vort.a.Data[k+vort.side])
					c.r.Access(vort.a.Addr(k-1), false)
					c.r.Access(vort.a.Addr(k+1), false)
					c.r.Access(vort.a.Addr(k-vort.side), false)
					c.r.Access(vort.a.Addr(k+vort.side), false)
					c.r.Access(vort.a.Addr(k), true)
					c.r.Access(rhs.a.Addr(rhs.idx(i, j)), true)
					vort.a.Data[k] = v
					rhs.a.Data[rhs.idx(i, j)] = v
					c.Compute(7)
				}
			}
		})
		w.Barrier()

		// One multigrid V-cycle on psi.
		for l := 0; l < a.levels; l++ {
			interior := a.n >> l
			for sweep := 0; sweep < 2; sweep++ {
				for color := 0; color < 2; color++ {
					w.ParallelIndep(func(c *Ctx) {
						a.relaxColor(c, gs[l], rs[l], interior, color, h2*float64(int(1)<<(2*l)))
					})
					w.Barrier()
				}
			}
			if l+1 < a.levels {
				w.ParallelIndep(func(c *Ctx) {
					a.restrictTo(c, gs[l], rs[l], gs[l+1], rs[l+1], interior)
				})
				w.Barrier()
			}
		}
		for l := a.levels - 2; l >= 0; l-- {
			interior := a.n >> l
			w.ParallelIndep(func(c *Ctx) {
				a.prolong(c, gs[l+1], gs[l], interior)
			})
			w.Barrier()
			for color := 0; color < 2; color++ {
				w.ParallelIndep(func(c *Ctx) {
					a.relaxColor(c, gs[l], rs[l], interior, color, h2*float64(int(1)<<(2*l)))
				})
				w.Barrier()
			}
		}
	}

	t, err := w.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("ocean: %w", err)
	}
	return t, psi.a.Data, nil
}

func init() {
	register(Info{
		Name:        "ocean",
		Description: "Ocean simulation (red-black multigrid core)",
		Input:       "258x258 ocean (256 interior), 3 timesteps",
		ReadsSeed:   false,
		Generate: func(p Params) (*trace.Trace, error) {
			t, _, err := GenerateOcean(p)
			return t, err
		},
	})
}
