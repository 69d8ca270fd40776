package apps

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// barnesApp implements the SPLASH-2 Barnes-Hut hierarchical N-body
// simulation: an octree is rebuilt every timestep under hashed cell
// locks, centers of mass propagate bottom-up, and each processor computes
// softened gravitational forces on its bodies by traversing the tree with
// the opening criterion theta, then integrates positions. The octree
// cells are the read-write shared-at-high-degree data the paper's
// analysis centers on.
type barnesApp struct {
	n     int
	steps int
	theta float64
	cpus  int
	seed  uint64
}

const (
	bodyBytes = 96  // pos(24) vel(24) acc(24) mass(8) pad
	cellBytes = 128 // children(64) com(24) mass(8) count(8) pad

	bodyPosOff  = 0
	bodyVelOff  = 24
	bodyAccOff  = 48
	bodyMassOff = 72

	cellChildOff = 0
	cellComOff   = 64 // com + mass together: 32 bytes, one block
)

type vec3 struct{ x, y, z float64 }

func (a vec3) add(b vec3) vec3      { return vec3{a.x + b.x, a.y + b.y, a.z + b.z} }
func (a vec3) sub(b vec3) vec3      { return vec3{a.x - b.x, a.y - b.y, a.z - b.z} }
func (a vec3) scale(s float64) vec3 { return vec3{a.x * s, a.y * s, a.z * s} }

// cell is one octree internal node. children >= 0 index cells; values of
// -(b+2) reference body b; empty slots hold -1.
type cell struct {
	children [8]int
	com      vec3
	mass     float64
	count    int
}

func newBarnes(p Params) *barnesApp {
	p = p.norm()
	n := 4096 / p.Scale
	if n < 64 {
		n = 64
	}
	return &barnesApp{n: n, steps: 3, theta: 0.9, cpus: p.CPUs, seed: p.Seed}
}

// GenerateBarnes builds the trace and returns the final body positions
// for verification.
func GenerateBarnes(p Params) (*trace.Trace, []vec3, error) {
	a := newBarnes(p)
	w := NewWorld("barnes", a.cpus)

	bodies := w.AllocRec("bodies", a.n, bodyBytes)
	maxCells := 2 * a.n
	cellsRec := w.AllocRec("cells", maxCells, cellBytes)

	pos := make([]vec3, a.n)
	vel := make([]vec3, a.n)
	acc := make([]vec3, a.n)
	mass := make([]float64, a.n)

	cells := make([]cell, 0, maxCells)
	var root int

	// Plummer-like initial distribution.
	r := newRNG(4242 + a.seed)
	w.Serial(func(c *Ctx) {
		for i := 0; i < a.n; i++ {
			pos[i] = vec3{r.float64(), r.float64(), r.float64()}
			vel[i] = vec3{r.float64() - 0.5, r.float64() - 0.5, r.float64() - 0.5}.scale(0.01)
			mass[i] = 1.0 / float64(a.n)
			c.TouchRec(bodies, i, 0, bodyBytes, true)
		}
		c.Compute(a.n * 8)
	})
	w.Phase()

	per := (a.n + a.cpus - 1) / a.cpus
	partition := func(cpu int) (lo, hi int) {
		lo, hi = cpu*per, (cpu+1)*per
		if hi > a.n {
			hi = a.n
		}
		if lo > hi {
			lo = hi
		}
		return
	}

	// Parallel first touch of body partitions.
	w.ParallelIndep(func(c *Ctx) {
		lo, hi := partition(c.CPU)
		for i := lo; i < hi; i++ {
			c.TouchRec(bodies, i, 0, bodyBytes, false)
		}
		c.Compute(hi - lo)
	})
	w.Barrier()

	const nlocks = 64
	lockFor := func(cellIdx int) int { return cellIdx % nlocks }
	dt := 0.01
	eps2 := 1e-4

	for step := 0; step < a.steps; step++ {
		// --- Tree build: cells reset, then parallel insertion under
		// hashed locks. Insertion stays Parallel: bodies name their
		// cell locks inside the segment and grow the one shared tree,
		// so the CPU order is part of the tree's shape.
		cells = cells[:0]
		cells = append(cells, cell{children: [8]int{-1, -1, -1, -1, -1, -1, -1, -1}})
		root = 0
		w.Serial(func(c *Ctx) {
			c.TouchRec(cellsRec, root, 0, cellBytes, true)
		})
		w.Barrier()

		w.Parallel(func(c *Ctx) {
			lo, hi := partition(c.CPU)
			for i := lo; i < hi; i++ {
				c.TouchRec(bodies, i, bodyPosOff, 24, false)
				a.insert(c, cellsRec, &cells, root, i, pos, vec3{0.5, 0.5, 0.5}, 0.5, lockFor)
			}
		})
		w.Barrier()

		// --- Center-of-mass propagation (processor 0 walks the tree;
		// SPLASH parallelizes this, but it is a small fraction of the
		// work and the sharing pattern — every cell written once more —
		// is preserved).
		w.Serial(func(c *Ctx) {
			a.computeCOM(c, cellsRec, cells, root, pos, mass)
		})
		w.Barrier()

		// --- Force computation: each processor traverses the shared
		// tree for its bodies.
		w.ParallelIndep(func(c *Ctx) {
			lo, hi := partition(c.CPU)
			for i := lo; i < hi; i++ {
				c.TouchRec(bodies, i, bodyPosOff, 24, false)
				f := a.force(c, cellsRec, cells, bodies, root, i, pos, mass, 1.0, eps2)
				acc[i] = f
				c.TouchRec(bodies, i, bodyAccOff, 24, true)
			}
		})
		w.Barrier()

		// --- Integration: leapfrog update of the local partition.
		w.ParallelIndep(func(c *Ctx) {
			lo, hi := partition(c.CPU)
			for i := lo; i < hi; i++ {
				vel[i] = vel[i].add(acc[i].scale(dt))
				pos[i] = pos[i].add(vel[i].scale(dt))
				// keep bodies inside the unit box (reflecting walls)
				if pos[i].x < 0 || pos[i].x > 1 {
					vel[i].x = -vel[i].x
					pos[i].x = math.Min(1, math.Max(0, pos[i].x))
				}
				if pos[i].y < 0 || pos[i].y > 1 {
					vel[i].y = -vel[i].y
					pos[i].y = math.Min(1, math.Max(0, pos[i].y))
				}
				if pos[i].z < 0 || pos[i].z > 1 {
					vel[i].z = -vel[i].z
					pos[i].z = math.Min(1, math.Max(0, pos[i].z))
				}
				c.TouchRec(bodies, i, bodyAccOff, 24, false)
				c.TouchRec(bodies, i, bodyPosOff, 48, true)
				c.Compute(20)
			}
		})
		w.Barrier()
	}

	t, err := w.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("barnes: %w", err)
	}
	return t, pos, nil
}

// octant returns the child slot of p relative to center.
func octant(p, center vec3) int {
	o := 0
	if p.x >= center.x {
		o |= 1
	}
	if p.y >= center.y {
		o |= 2
	}
	if p.z >= center.z {
		o |= 4
	}
	return o
}

func childCenter(center vec3, half float64, o int) vec3 {
	h := half / 2
	c := center
	if o&1 != 0 {
		c.x += h
	} else {
		c.x -= h
	}
	if o&2 != 0 {
		c.y += h
	} else {
		c.y -= h
	}
	if o&4 != 0 {
		c.z += h
	} else {
		c.z -= h
	}
	return c
}

// insert adds body i into the tree under hashed cell locks, splitting
// leaves as needed, recording the cell accesses.
func (a *barnesApp) insert(c *Ctx, rec *Rec, cells *[]cell, node, body int,
	pos []vec3, center vec3, half float64, lockFor func(int) int) {
	for depth := 0; depth < 64; depth++ {
		o := octant(pos[body], center)
		lid := c.w.LockID(fmt.Sprintf("cell%d", lockFor(node)))
		c.Lock(lid)
		c.TouchRec(rec, node, cellChildOff+o*8, 8, false)
		ch := (*cells)[node].children[o]
		switch {
		case ch == -1:
			// empty slot: place the body
			(*cells)[node].children[o] = -(body + 2)
			(*cells)[node].count++
			c.TouchRec(rec, node, cellChildOff+o*8, 8, true)
			c.Unlock(lid)
			return
		case ch <= -2:
			// occupied by a body: split into a new cell
			other := -(ch + 2)
			if len(*cells) >= cap(*cells) {
				c.Unlock(lid)
				return // cell pool exhausted; drop (cannot happen with 2n pool)
			}
			*cells = append(*cells, cell{children: [8]int{-1, -1, -1, -1, -1, -1, -1, -1}})
			nc := len(*cells) - 1
			cc := childCenter(center, half, o)
			oo := octant(pos[other], cc)
			(*cells)[nc].children[oo] = -(other + 2)
			(*cells)[nc].count++
			(*cells)[node].children[o] = nc
			c.TouchRec(rec, nc, 0, cellBytes, true)
			c.TouchRec(rec, node, cellChildOff+o*8, 8, true)
			c.Unlock(lid)
			center, half = cc, half/2
			node = nc
			c.Compute(12)
		default:
			// descend into existing cell
			c.Unlock(lid)
			center, half = childCenter(center, half, o), half/2
			node = ch
			c.Compute(8)
		}
	}
}

// computeCOM fills in each cell's total mass and center of mass.
func (a *barnesApp) computeCOM(c *Ctx, rec *Rec, cells []cell, node int,
	pos []vec3, mass []float64) (vec3, float64) {
	var com vec3
	var m float64
	for o := 0; o < 8; o++ {
		ch := cells[node].children[o]
		if ch == -1 {
			continue
		}
		if ch <= -2 {
			b := -(ch + 2)
			com = com.add(pos[b].scale(mass[b]))
			m += mass[b]
			continue
		}
		cc, cm := a.computeCOM(c, rec, cells, ch, pos, mass)
		com = com.add(cc.scale(cm))
		m += cm
	}
	if m > 0 {
		com = com.scale(1 / m)
	}
	cells[node].com = com
	cells[node].mass = m
	c.TouchRec(rec, node, 0, cellBytes, true)
	c.Compute(30)
	return com, m
}

// force computes the softened gravitational acceleration on body i via
// Barnes-Hut traversal, recording cell and body reads.
func (a *barnesApp) force(c *Ctx, rec *Rec, cells []cell, bodies *Rec,
	node, i int, pos []vec3, mass []float64, size float64, eps2 float64) vec3 {
	var acc vec3
	type frame struct {
		node int
		size float64
	}
	stack := []frame{{node, size}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cl := &cells[f.node]
		c.TouchRec(rec, f.node, cellComOff, 32, false)
		d := cl.com.sub(pos[i])
		dist2 := d.x*d.x + d.y*d.y + d.z*d.z + eps2
		if f.size*f.size < a.theta*a.theta*dist2 {
			// far enough: use the cell's aggregate
			inv := 1 / math.Sqrt(dist2)
			acc = acc.add(d.scale(cl.mass * inv * inv * inv))
			c.Compute(28)
			continue
		}
		for o := 0; o < 8; o++ {
			ch := cl.children[o]
			if ch == -1 {
				continue
			}
			if ch <= -2 {
				b := -(ch + 2)
				if b == i {
					continue
				}
				c.TouchRec(bodies, b, bodyPosOff, 24, false)
				c.TouchRec(bodies, b, bodyMassOff, 8, false)
				db := pos[b].sub(pos[i])
				r2 := db.x*db.x + db.y*db.y + db.z*db.z + eps2
				inv := 1 / math.Sqrt(r2)
				acc = acc.add(db.scale(mass[b] * inv * inv * inv))
				c.Compute(28)
				continue
			}
			stack = append(stack, frame{ch, f.size / 2})
		}
	}
	return acc
}

func init() {
	register(Info{
		Name:        "barnes",
		Description: "Barnes-Hut hierarchical N-body simulation",
		Input:       "4K particles, 3 timesteps, theta=0.9",
		ReadsSeed:   true,
		Generate: func(p Params) (*trace.Trace, error) {
			t, _, err := GenerateBarnes(p)
			return t, err
		},
	})
}
