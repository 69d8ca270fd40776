package apps

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// choleskyApp implements a blocked sparse Cholesky factorization in the
// style of the SPLASH-2 cholesky benchmark. The paper's input (tk16.O) is
// a proprietary matrix file we do not have, so we substitute a synthetic
// block-banded symmetric positive-definite matrix: the band keeps all
// fill inside the stored structure while preserving the kernel's
// characteristics the paper discusses — blocks are written once, read a
// few times shortly after by other processors' updates, and then go dead
// (low page reuse), and column tasks are handed out through a shared
// queue whose lock traffic is modeled.
type choleskyApp struct {
	nb   int // block columns
	bw   int // half bandwidth in blocks
	b    int // block size
	cpus int
}

func newCholesky(p Params) *choleskyApp {
	p = p.norm()
	nb := 80 / p.Scale
	if nb < 8 {
		nb = 8
	}
	bw := 12
	if bw >= nb {
		bw = nb - 1
	}
	return &choleskyApp{nb: nb, bw: bw, b: 16, cpus: p.CPUs}
}

// rowLen is the stored width of one matrix row: the full band.
func (a *choleskyApp) rowLen() int { return (a.bw + 1) * a.b }

// at returns the storage index of element (i, j) in row-major band
// layout: row i stores columns [i-bw*b, i] contiguously. Row-major
// storage means consecutive matrix rows share pages, so a page is
// touched by every factorization step whose band covers those rows —
// the cross-step reuse the paper's cholesky traffic exhibits.
func (a *choleskyApp) at(i, j int) int {
	return i*a.rowLen() + (j - a.first(i))
}

// first returns row i's first in-band column. L is zero left of it and
// nothing stores those entries: at gives them a negative in-row offset,
// which lands in the previous row's spare slots past its diagonal.
// touch records whole band-edge blocks through such offsets, but no
// value is read or written there.
func (a *choleskyApp) first(i int) int { return i - a.bw*a.b }

// GenerateCholesky builds the trace and returns the factor storage plus
// geometry for verification (band layout, L in the lower band).
func GenerateCholesky(p Params) (*trace.Trace, *F64, int, int, int, error) {
	a := newCholesky(p)
	w := NewWorld("cholesky", a.cpus)
	b, nb, bw := a.b, a.nb, a.bw

	mat := w.AllocF64("band", nb*b*a.rowLen())
	// touch records one pass over block (I, J): b row segments.
	touch := func(c *Ctx, I, J int, write bool) {
		for r := 0; r < b; r++ {
			c.TouchRange(mat.Addr(a.at(I*b+r, J*b)), b*8, write)
		}
	}

	// Synthetic SPD band matrix: random off-diagonal entries, strongly
	// dominant diagonal.
	r := newRNG(2718)
	w.Serial(func(c *Ctx) {
		n := nb * b
		for i := 0; i < n; i++ {
			lo := i - bw*b
			if lo < 0 {
				lo = 0
			}
			for j := lo; j <= i; j++ {
				v := (r.float64() - 0.5) * 0.1
				if i == j {
					v = float64(bw*b) + 2 + r.float64()
				}
				mat.Data[a.at(i, j)] = v
			}
			c.TouchRange(mat.Addr(a.at(i, lo)), (i-lo+1)*8, true)
			c.Compute(i - lo + 1)
		}
	})
	w.Phase()

	// owner of block column j (supernode distribution)
	owner := func(j int) int { return j % a.cpus }

	// Parallel first touch: owners touch their block columns.
	w.ParallelIndep(func(c *Ctx) {
		for j := 0; j < nb; j++ {
			if owner(j) != c.CPU {
				continue
			}
			for i := j; i < nb && i-j <= bw; i++ {
				touch(c, i, j, false)
			}
			c.Compute(b * b / 4)
		}
	})
	w.Barrier()

	d := mat.Data
	for k := 0; k < nb; k++ {
		kk := k
		// Factor the diagonal block: dense Cholesky in place. This
		// segment stays Parallel because the owner names its queue
		// lock inside the body.
		w.Parallel(func(c *Ctx) {
			if owner(kk) != c.CPU {
				return
			}
			qlock := c.w.LockID(fmt.Sprintf("queue%d", c.CPU%8))
			c.Lock(qlock)
			c.Compute(40) // dequeue the supernode task
			c.Unlock(qlock)
			o := kk * b // first global row/col of the block
			for p0 := 0; p0 < b; p0++ {
				s := d[a.at(o+p0, o+p0)]
				for x := 0; x < p0; x++ {
					s -= d[a.at(o+p0, o+x)] * d[a.at(o+p0, o+x)]
				}
				d[a.at(o+p0, o+p0)] = math.Sqrt(s)
				for i := p0 + 1; i < b; i++ {
					s := d[a.at(o+i, o+p0)]
					for x := 0; x < p0; x++ {
						s -= d[a.at(o+i, o+x)] * d[a.at(o+p0, o+x)]
					}
					d[a.at(o+i, o+p0)] = s / d[a.at(o+p0, o+p0)]
				}
			}
			touch(c, kk, kk, true)
			c.Compute(b * b * b / 3)
		})
		w.Barrier()

		// Triangular solves: L(i,k) = A(i,k) * L(k,k)^-T.
		w.ParallelIndep(func(c *Ctx) {
			for i := kk + 1; i < nb && i-kk <= bw; i++ {
				if owner(i) != c.CPU {
					continue
				}
				ro, co := i*b, kk*b
				for row := 0; row < b; row++ {
					// At the band edge (i-k == bw) the columns left of
					// lo are outside the band: zero in L, never stored.
					lo := max(0, a.first(ro+row)-co)
					for col := lo; col < b; col++ {
						s := d[a.at(ro+row, co+col)]
						for x := lo; x < col; x++ {
							s -= d[a.at(ro+row, co+x)] * d[a.at(co+col, co+x)]
						}
						d[a.at(ro+row, co+col)] = s / d[a.at(co+col, co+col)]
					}
				}
				touch(c, kk, kk, false)
				touch(c, i, kk, true)
				c.Compute(b * b * b)
			}
		})
		w.Barrier()

		// Trailing updates: A(i,j) -= L(i,k) * L(j,k)^T within the band.
		// owner(j) writes only block column j and every body reads only
		// block column k, which the solves above wrote, so the bodies
		// are independent.
		w.ParallelIndep(func(c *Ctx) {
			for j := kk + 1; j < nb && j-kk <= bw; j++ {
				if owner(j) != c.CPU {
					continue
				}
				for i := j; i < nb && i-kk <= bw && i-j <= bw; i++ {
					io, jo, ko := i*b, j*b, kk*b
					for row := 0; row < b; row++ {
						// L(i,k) is zero left of row io+row's band;
						// L(j,k) lies wholly inside it (j-k < bw).
						lo := max(0, a.first(io+row)-ko)
						// A diagonal block keeps only its lower triangle:
						// its spare upper slots are not part of L.
						cols := b
						if i == j {
							cols = row + 1
						}
						for col := 0; col < cols; col++ {
							s := d[a.at(io+row, jo+col)]
							for x := lo; x < b; x++ {
								s -= d[a.at(io+row, ko+x)] * d[a.at(jo+col, ko+x)]
							}
							d[a.at(io+row, jo+col)] = s
						}
					}
					touch(c, i, kk, false)
					touch(c, j, kk, false)
					touch(c, i, j, true)
					c.Compute(2 * b * b * b)
				}
			}
		})
		w.Barrier()
	}

	t, err := w.Finish()
	if err != nil {
		return nil, nil, 0, 0, 0, fmt.Errorf("cholesky: %w", err)
	}
	return t, mat, nb, bw, b, nil
}

func init() {
	register(Info{
		Name:        "cholesky",
		Description: "Blocked sparse Cholesky factorization",
		Input:       "synthetic SPD band matrix, 80 block cols, bw 12, 16x16 blocks (substitutes tk16.O)",
		ReadsSeed:   false,
		Generate: func(p Params) (*trace.Trace, error) {
			t, _, _, _, _, err := GenerateCholesky(p)
			return t, err
		},
	})
}
