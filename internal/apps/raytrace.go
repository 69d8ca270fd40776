package apps

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/trace"
)

// raytraceApp implements a real recursive ray tracer in the style of the
// SPLASH-2 raytrace benchmark. The paper's "car" model is proprietary, so
// the scene is procedural: thousands of spheres above a ground plane,
// organized in a bounding-volume hierarchy. The BVH and sphere records
// form a large read-shared structure every processor traverses — the
// sharing pattern that makes raytrace a page-replication candidate in the
// paper — while tiles of the image are handed out through a work queue
// whose lock traffic is modeled.
type raytraceApp struct {
	spheres int
	img     int // image side in pixels
	tile    int
	cpus    int
	seed    uint64
}

const (
	sphereBytes  = 64 // center(24) radius(8) color(24) flags(8)
	bvhNodeBytes = 64 // bbox(48) left/right/leaf info(16)
)

type sphere struct {
	center vec3
	radius float64
	color  vec3
	mirror bool
}

type bvhNode struct {
	min, max    vec3
	left, right int // children; leaf if left < 0
	first, num  int // sphere range when leaf
}

func newRaytrace(p Params) *raytraceApp {
	p = p.norm()
	s := 8192 / p.Scale
	if s < 32 {
		s = 32
	}
	img := 128
	if p.Scale > 1 {
		img = 64
	}
	return &raytraceApp{spheres: s, img: img, tile: 8, cpus: p.CPUs, seed: p.Seed}
}

// buildBVH constructs a median-split BVH over the sphere set, returning
// nodes and the leaf-ordered sphere permutation.
func buildBVH(sp []sphere) ([]bvhNode, []int) {
	order := make([]int, len(sp))
	for i := range order {
		order[i] = i
	}
	var nodes []bvhNode
	// keys holds one segment's spheres for the split sort: each one's
	// coordinate on the split axis, its position in the segment before
	// the sort and its index.
	type sortKey struct {
		key      float64
		pos, idx int
	}
	keys := make([]sortKey, len(sp))
	var build func(lo, hi, axis int) int
	build = func(lo, hi, axis int) int {
		idx := len(nodes)
		nodes = append(nodes, bvhNode{})
		mn := vec3{math.Inf(1), math.Inf(1), math.Inf(1)}
		mx := vec3{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
		for _, i := range order[lo:hi] {
			c, r := sp[i].center, sp[i].radius
			mn.x = math.Min(mn.x, c.x-r)
			mn.y = math.Min(mn.y, c.y-r)
			mn.z = math.Min(mn.z, c.z-r)
			mx.x = math.Max(mx.x, c.x+r)
			mx.y = math.Max(mx.y, c.y+r)
			mx.z = math.Max(mx.z, c.z+r)
		}
		n := bvhNode{min: mn, max: mx}
		if hi-lo <= 4 {
			n.left = -1
			n.first, n.num = lo, hi-lo
			nodes[idx] = n
			return idx
		}
		// Median split on axis: the segment sorted by (key, position),
		// a total order, so equal keys keep their order and the
		// permutation is the stable sort's.
		ks := keys[:hi-lo]
		for p, i := range order[lo:hi] {
			ks[p] = sortKey{axisKey(sp[i].center, axis), p, i}
		}
		slices.SortFunc(ks, func(a, b sortKey) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.pos, b.pos)
		})
		for p, k := range ks {
			order[lo+p] = k.idx
		}
		mid := (lo + hi) / 2
		n.left = build(lo, mid, (axis+1)%3)
		n.right = build(mid, hi, (axis+1)%3)
		nodes[idx] = n
		return idx
	}
	build(0, len(sp), 0)
	return nodes, order
}

// axisKey returns the coordinate of c along axis (0 x, 1 y, 2 z).
func axisKey(c vec3, axis int) float64 {
	switch axis {
	case 0:
		return c.x
	case 1:
		return c.y
	default:
		return c.z
	}
}

type ray struct {
	org, dir vec3
}

func dot(a, b vec3) float64 { return a.x*b.x + a.y*b.y + a.z*b.z }

// hitBox tests a ray against an AABB (slab method).
func hitBox(r ray, mn, mx vec3, tmax float64) bool {
	t0, t1 := 1e-4, tmax
	for ax := 0; ax < 3; ax++ {
		var o, d, lo, hi float64
		switch ax {
		case 0:
			o, d, lo, hi = r.org.x, r.dir.x, mn.x, mx.x
		case 1:
			o, d, lo, hi = r.org.y, r.dir.y, mn.y, mx.y
		default:
			o, d, lo, hi = r.org.z, r.dir.z, mn.z, mx.z
		}
		inv := 1 / d
		ta, tb := (lo-o)*inv, (hi-o)*inv
		if inv < 0 {
			ta, tb = tb, ta
		}
		if ta > t0 {
			t0 = ta
		}
		if tb < t1 {
			t1 = tb
		}
		if t0 > t1 {
			return false
		}
	}
	return true
}

// hitSphere returns the nearest intersection parameter, or -1.
func hitSphere(r ray, s *sphere) float64 {
	oc := r.org.sub(s.center)
	b := dot(oc, r.dir)
	c := dot(oc, oc) - s.radius*s.radius
	disc := b*b - c
	if disc < 0 {
		return -1
	}
	sq := math.Sqrt(disc)
	t := -b - sq
	if t > 1e-4 {
		return t
	}
	t = -b + sq
	if t > 1e-4 {
		return t
	}
	return -1
}

// GenerateRaytrace builds the trace and returns the framebuffer for
// verification.
func GenerateRaytrace(p Params) (*trace.Trace, []float64, error) {
	a := newRaytrace(p)
	w := NewWorld("raytrace", a.cpus)

	spRec := w.AllocRec("spheres", a.spheres, sphereBytes)
	// generous node bound: 2x leaves
	maxNodes := a.spheres
	if maxNodes < 64 {
		maxNodes = 64
	}
	nodeRec := w.AllocRec("bvh", maxNodes, bvhNodeBytes)
	orderArr := w.AllocI64("sphereorder", a.spheres)
	fb := w.AllocF64("framebuffer", a.img*a.img)

	sp := make([]sphere, a.spheres)
	r := newRNG(99991 + a.seed)
	var nodes []bvhNode
	var order []int

	w.Serial(func(c *Ctx) {
		for i := range sp {
			sp[i] = sphere{
				center: vec3{r.float64() * 10, 0.2 + r.float64()*3, r.float64() * 10},
				radius: 0.05 + r.float64()*0.12,
				color:  vec3{0.3 + r.float64()*0.7, 0.3 + r.float64()*0.7, 0.3 + r.float64()*0.7},
				mirror: i%4 == 0,
			}
			c.TouchRec(spRec, i, 0, sphereBytes, true)
		}
		nodes, order = buildBVH(sp)
		if len(nodes) > maxNodes {
			panic("raytrace: BVH node bound exceeded")
		}
		for i := range nodes {
			c.TouchRec(nodeRec, i, 0, bvhNodeBytes, true)
		}
		for i, o := range order {
			orderArr.Data[i] = int64(o)
			c.r.Access(orderArr.Addr(i), true)
		}
		c.Compute(a.spheres * 24)
	})
	w.Phase()

	light := vec3{5, 12, 5}
	camera := vec3{5, 2.5, -6}

	// traceRay returns the shaded color; depth limits mirror recursion.
	var traceRay func(c *Ctx, rr ray, depth int) vec3
	intersect := func(c *Ctx, rr ray) (int, float64) {
		best, bestT := -1, math.Inf(1)
		stack := []int{0}
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := &nodes[ni]
			c.TouchRec(nodeRec, ni, 0, bvhNodeBytes, false)
			c.Compute(18)
			if !hitBox(rr, n.min, n.max, bestT) {
				continue
			}
			if n.left < 0 {
				for k := n.first; k < n.first+n.num; k++ {
					c.r.Access(orderArr.Addr(k), false)
					si := order[k]
					c.TouchRec(spRec, si, 0, 32, false)
					t := hitSphere(rr, &sp[si])
					c.Compute(22)
					if t > 0 && t < bestT {
						best, bestT = si, t
					}
				}
				continue
			}
			stack = append(stack, n.left, n.right)
		}
		return best, bestT
	}
	traceRay = func(c *Ctx, rr ray, depth int) vec3 {
		si, t := intersect(c, rr)
		// ground plane y=0
		if rr.dir.y < 0 {
			tp := -rr.org.y / rr.dir.y
			if tp > 1e-4 && tp < t {
				hitP := rr.org.add(rr.dir.scale(tp))
				// checker albedo
				cx, cz := int(math.Floor(hitP.x)), int(math.Floor(hitP.z))
				alb := 0.3
				if (cx+cz)&1 == 0 {
					alb = 0.9
				}
				// shadow ray
				toL := light.sub(hitP)
				d := math.Sqrt(dot(toL, toL))
				sray := ray{hitP, toL.scale(1 / d)}
				shadowed, _ := intersect(c, sray)
				c.Compute(30)
				if shadowed >= 0 {
					return vec3{alb * 0.1, alb * 0.1, alb * 0.1}
				}
				diff := math.Max(0, sray.dir.y)
				return vec3{alb * diff, alb * diff, alb * diff}
			}
		}
		if si < 0 {
			// sky
			u := 0.5 * (rr.dir.y + 1)
			return vec3{0.6 + 0.2*u, 0.7 + 0.2*u, 1.0}
		}
		hitP := rr.org.add(rr.dir.scale(t))
		norm := hitP.sub(sp[si].center).scale(1 / sp[si].radius)
		toL := light.sub(hitP)
		d := math.Sqrt(dot(toL, toL))
		ldir := toL.scale(1 / d)
		shadowed, _ := intersect(c, ray{hitP, ldir})
		diff := math.Max(0, dot(norm, ldir))
		if shadowed >= 0 {
			diff *= 0.1
		}
		col := sp[si].color.scale(0.15 + 0.85*diff)
		c.Compute(40)
		if sp[si].mirror && depth > 0 {
			rd := rr.dir.sub(norm.scale(2 * dot(rr.dir, norm)))
			rc := traceRay(c, ray{hitP, rd}, depth-1)
			col = col.scale(0.6).add(rc.scale(0.4))
		}
		return col
	}

	// Render: tiles are claimed through per-node work-queue locks in a
	// deterministic round-robin order (the SPLASH-2 distributed work
	// queues with stealing assign tiles dynamically; round-robin keeps
	// the trace deterministic while preserving the queue lock traffic
	// and the all-processors-read-the-scene pattern).
	//
	// The queue locks are named before the segment, in the order the
	// processors first use them, because its bodies run concurrently.
	tiles := (a.img / a.tile) * (a.img / a.tile)
	qlocks := make([]int, min(8, a.cpus))
	for i := range qlocks {
		qlocks[i] = w.LockID(fmt.Sprintf("tilequeue%d", i))
	}
	w.ParallelIndep(func(c *Ctx) {
		qlock := qlocks[c.CPU%len(qlocks)]
		tilesPerRow := a.img / a.tile
		for tIdx := c.CPU; tIdx < tiles; tIdx += c.N {
			c.Lock(qlock)
			c.Compute(30) // claim the tile
			c.Unlock(qlock)
			tx, ty := tIdx%tilesPerRow, tIdx/tilesPerRow
			for py := ty * a.tile; py < (ty+1)*a.tile; py++ {
				for px := tx * a.tile; px < (tx+1)*a.tile; px++ {
					u := (float64(px)/float64(a.img) - 0.5) * 1.6
					v := (0.5 - float64(py)/float64(a.img)) * 1.6
					dir := vec3{u, v + 0.25, 1}
					il := 1 / math.Sqrt(dot(dir, dir))
					col := traceRay(c, ray{camera, dir.scale(il)}, 1)
					lum := 0.2126*col.x + 0.7152*col.y + 0.0722*col.z
					c.Store(fb, py*a.img+px, lum)
					c.Compute(15)
				}
			}
		}
	})
	w.Barrier()

	t, err := w.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("raytrace: %w", err)
	}
	return t, fb.Data, nil
}

func init() {
	register(Info{
		Name:        "raytrace",
		Description: "3-D scene rendering using ray tracing",
		Input:       "8K-sphere procedural scene (substitutes 'car'), 128x128 image",
		ReadsSeed:   true,
		Generate: func(p Params) (*trace.Trace, error) {
			t, _, err := GenerateRaytrace(p)
			return t, err
		},
	})
}
