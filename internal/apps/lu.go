package apps

import (
	"fmt"

	"repro/internal/trace"
)

// luApp implements the SPLASH-2 blocked dense LU factorization
// (non-contiguous variant): the matrix is a row-major two-dimensional
// array, so matrix rows run contiguously through the shared pages —
// blocks are assigned to processors in a 2D scatter (cyclic)
// decomposition, and every step factorizes the diagonal block, updates
// the perimeter row and column, then applies rank-B updates to the
// interior. Because a page spans a whole row, every row page is touched
// by many processors at every step below its pivot: the long-term remote
// reuse that distinguishes the paper's lu results. The factorization is
// real: tests verify L*U against the input matrix.
type luApp struct {
	n, b, nb int
	iters    int
	cpus     int

	w    *World
	mat  *F64 // working matrix, row-major
	orig *F64 // original matrix, read-shared by the per-iteration read phase

	rowsP, colsP int // processor grid
}

func newLU(p Params) *luApp {
	p = p.norm()
	n := 384 / p.Scale
	b := 16
	if n < 4*b {
		b = n / 4
		if b < 2 {
			b = 2
		}
	}
	n = (n / b) * b
	a := &luApp{n: n, b: b, nb: n / b, iters: 4, cpus: p.CPUs}
	// processor grid as square as possible
	a.rowsP = 1
	for a.rowsP*a.rowsP < p.CPUs {
		a.rowsP++
	}
	for p.CPUs%a.rowsP != 0 {
		a.rowsP--
	}
	a.colsP = p.CPUs / a.rowsP
	return a
}

// owner returns the processor owning block (I, J) under 2D scatter.
func (a *luApp) owner(I, J int) int {
	return (I%a.rowsP)*a.colsP + J%a.colsP
}

// at returns the matrix element (i, j) storage index (row-major).
func (a *luApp) at(i, j int) int { return i*a.n + j }

// touchBlock records one pass over block (I, J)'s storage: b row
// segments of b elements each.
func (a *luApp) touchBlock(c *Ctx, I, J int, write bool) {
	for r := 0; r < a.b; r++ {
		c.TouchRange(a.mat.Addr(a.at(I*a.b+r, J*a.b)), a.b*8, write)
	}
}

// generate builds the trace and returns the factored matrix for
// verification.
func (a *luApp) generate() (*trace.Trace, *F64, error) {
	w := NewWorld("lu", a.cpus)
	a.w = w
	a.mat = w.AllocF64("matrix", a.n*a.n)
	a.orig = w.AllocF64("original", a.n*a.n)
	b, nb := a.b, a.nb

	// Sequential initialization: a diagonally dominant matrix, written
	// by processor 0 as the original program's main thread does.
	r := newRNG(12345)
	w.Serial(func(c *Ctx) {
		for i := 0; i < a.n; i++ {
			for j := 0; j < a.n; j++ {
				v := r.float64() - 0.5
				if i == j {
					v += float64(a.n)
				}
				a.orig.Data[a.at(i, j)] = v
			}
			c.TouchRange(a.orig.Addr(a.at(i, 0)), a.n*8, true)
			c.Compute(a.n)
		}
	})
	w.Phase()

	// Parallel first-touch pass: every owner touches its working blocks
	// so first-touch placement matches the scatter decomposition.
	w.ParallelIndep(func(c *Ctx) {
		for I := 0; I < nb; I++ {
			for J := 0; J < nb; J++ {
				if a.owner(I, J) != c.CPU {
					continue
				}
				a.touchBlock(c, I, J, true)
				c.Compute(b * b / 4)
			}
		}
	})
	w.Barrier()

	for iter := 0; iter < a.iters; iter++ {
		a.oneFactorization(w)
	}

	t, err := w.Finish()
	return t, a.mat, err
}

// oneFactorization performs the read phase — every owner re-reads its
// blocks of the original matrix, which stays read-shared across all
// nodes — followed by a full in-place factorization of the working
// matrix, as the paper describes for lu ("a read phase of reading the
// matrix to be factorized before the start of computation in each
// iteration").
func (a *luApp) oneFactorization(w *World) {
	b, nb := a.b, a.nb

	// Read phase part 1: two processors per node scan the whole original
	// matrix (checksum/validation pass). The original stays read-shared
	// across every node for the entire run — the page-replication
	// opportunity the paper attributes to lu.
	w.ParallelIndep(func(c *Ctx) {
		if c.CPU%2 != 0 {
			return
		}
		for i := 0; i < a.n; i++ {
			c.TouchRange(a.orig.Addr(a.at(i, 0)), a.n*8, false)
			c.Compute(a.n / 4)
		}
	})
	w.Barrier()

	// Read phase part 2: owners copy their blocks into the working
	// matrix.
	w.ParallelIndep(func(c *Ctx) {
		for I := 0; I < nb; I++ {
			for J := 0; J < nb; J++ {
				if a.owner(I, J) != c.CPU {
					continue
				}
				for rr := 0; rr < b; rr++ {
					src := a.at(I*b+rr, J*b)
					c.TouchRange(a.orig.Addr(src), b*8, false)
					c.TouchRange(a.mat.Addr(src), b*8, true)
					copy(a.mat.Data[src:src+b], a.orig.Data[src:src+b])
				}
				c.Compute(b * b / 2)
			}
		}
	})
	w.Barrier()

	for k := 0; k < nb; k++ {
		// Factor diagonal block (no pivoting; the matrix is diagonally
		// dominant).
		w.ParallelIndep(func(c *Ctx) {
			if a.owner(k, k) != c.CPU {
				return
			}
			a.lu0(c, k)
		})
		w.Barrier()

		// Perimeter: column blocks solve against U11, row blocks
		// against L11.
		w.ParallelIndep(func(c *Ctx) {
			for I := k + 1; I < nb; I++ {
				if a.owner(I, k) == c.CPU {
					a.bdiv(c, I, k)
				}
			}
			for J := k + 1; J < nb; J++ {
				if a.owner(k, J) == c.CPU {
					a.bmodd(c, k, J)
				}
			}
		})
		w.Barrier()

		// Interior rank-B updates.
		w.ParallelIndep(func(c *Ctx) {
			for I := k + 1; I < nb; I++ {
				for J := k + 1; J < nb; J++ {
					if a.owner(I, J) == c.CPU {
						a.bmod(c, I, J, k)
					}
				}
			}
		})
		w.Barrier()
	}
}

// lu0 factorizes diagonal block k in place.
func (a *luApp) lu0(c *Ctx, k int) {
	b := a.b
	d := a.mat.Data
	for kk := 0; kk < b; kk++ {
		pivot := d[a.at(k*b+kk, k*b+kk)]
		for i := kk + 1; i < b; i++ {
			d[a.at(k*b+i, k*b+kk)] /= pivot
			l := d[a.at(k*b+i, k*b+kk)]
			for j := kk + 1; j < b; j++ {
				d[a.at(k*b+i, k*b+j)] -= l * d[a.at(k*b+kk, k*b+j)]
			}
		}
	}
	a.touchBlock(c, k, k, true)
	c.Compute(2 * b * b * b / 3)
}

// bdiv computes L(I,k) = A(I,k) * U(k,k)^-1.
func (a *luApp) bdiv(c *Ctx, I, k int) {
	b := a.b
	d := a.mat.Data
	for jj := 0; jj < b; jj++ {
		for i := 0; i < b; i++ {
			s := d[a.at(I*b+i, k*b+jj)]
			for x := 0; x < jj; x++ {
				s -= d[a.at(I*b+i, k*b+x)] * d[a.at(k*b+x, k*b+jj)]
			}
			d[a.at(I*b+i, k*b+jj)] = s / d[a.at(k*b+jj, k*b+jj)]
		}
	}
	a.touchBlock(c, k, k, false)
	a.touchBlock(c, I, k, true)
	c.Compute(b * b * b)
}

// bmodd computes U(k,J) = L(k,k)^-1 * A(k,J).
func (a *luApp) bmodd(c *Ctx, k, J int) {
	b := a.b
	d := a.mat.Data
	for ii := 0; ii < b; ii++ {
		for j := 0; j < b; j++ {
			s := d[a.at(k*b+ii, J*b+j)]
			for x := 0; x < ii; x++ {
				s -= d[a.at(k*b+ii, k*b+x)] * d[a.at(k*b+x, J*b+j)]
			}
			d[a.at(k*b+ii, J*b+j)] = s
		}
	}
	a.touchBlock(c, k, k, false)
	a.touchBlock(c, k, J, true)
	c.Compute(b * b * b)
}

// bmod applies A(I,J) -= L(I,k) * U(k,J).
func (a *luApp) bmod(c *Ctx, I, J, k int) {
	b := a.b
	d := a.mat.Data
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			s := d[a.at(I*b+i, J*b+j)]
			for x := 0; x < b; x++ {
				s -= d[a.at(I*b+i, k*b+x)] * d[a.at(k*b+x, J*b+j)]
			}
			d[a.at(I*b+i, J*b+j)] = s
		}
	}
	a.touchBlock(c, I, k, false)
	a.touchBlock(c, k, J, false)
	a.touchBlock(c, I, J, true)
	c.Compute(2 * b * b * b)
}

// GenerateLU builds the LU trace and also returns the factored matrix in
// block-contiguous storage along with the geometry, for verification.
func GenerateLU(p Params) (*trace.Trace, *F64, int, int, error) {
	a := newLU(p)
	t, mat, err := a.generate()
	return t, mat, a.n, a.b, err
}

func init() {
	register(Info{
		Name:        "lu",
		Description: "Blocked dense LU factorization",
		Input:       "384x384 matrix, 16x16 blocks, 4 iterations",
		ReadsSeed:   false,
		Generate: func(p Params) (*trace.Trace, error) {
			t, _, _, _, err := GenerateLU(p)
			if err != nil {
				return nil, fmt.Errorf("lu: %w", err)
			}
			return t, nil
		},
	})
}
