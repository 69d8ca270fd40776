// Package interconnect models the cluster fabric as an explicit graph
// of nodes, switches and unidirectional links with deterministic
// routing. A Fabric wraps a Topology with per-hop latency and counts
// every message into the stats.NetStats it publishes — per link, per
// ordered node pair and node-local — so that every protocol message
// the DSM machines exchange is attributed to the physical links it
// crosses.
//
// The ideal crossbar — one dedicated single-hop link per ordered node
// pair — reproduces the paper's original flat network-latency model
// exactly while still attributing traffic per link; the ring, 2D mesh
// and fat-tree fabrics open the topology axis the paper holds fixed.
package interconnect

import (
	"fmt"

	"repro/internal/config"
)

// Link is one unidirectional channel of the fabric graph. Endpoints are
// node ids in [0, Nodes) or switch ids at Nodes and above.
type Link struct {
	ID   int
	Src  int
	Dst  int
	Name string
}

// Topology is a static fabric graph with deterministic routing.
type Topology struct {
	// Name identifies the topology ("crossbar", "ring", ...).
	Name string
	// Nodes is the number of end nodes (switches excluded).
	Nodes int
	// Links lists every link in id order.
	Links []Link

	routes [][][]int
}

// Route returns the ids of the links a message from src to dst
// traverses, in order. It is empty exactly when src == dst. The
// returned slice is owned by the topology and must not be mutated:
// routes are precomputed at construction so the per-message hot path
// allocates nothing.
func (t *Topology) Route(src, dst int) []int { return t.routes[src][dst] }

// addLink appends a link with the next id and returns that id.
func (t *Topology) addLink(src, dst int, name string) int {
	id := len(t.Links)
	t.Links = append(t.Links, Link{ID: id, Src: src, Dst: dst, Name: name})
	return id
}

// tabulate precomputes every (src, dst) route so Route becomes an
// allocation-free table lookup; route is only called for src != dst.
func (t *Topology) tabulate(route func(src, dst int) []int) *Topology {
	t.routes = make([][][]int, t.Nodes)
	for s := range t.routes {
		t.routes[s] = make([][]int, t.Nodes)
		for d := range t.routes[s] {
			if s != d {
				t.routes[s][d] = route(s, d)
			}
		}
	}
	return t
}

// NewTopology builds the fabric graph a config.Network describes for
// the given node count. A Topology never changes once built, so any
// number of fabrics may share one.
func NewTopology(net config.Network, nodes int) (*Topology, error) {
	if err := net.Validate(nodes); err != nil {
		return nil, err
	}
	return newTopology(net.Kind(), nodes), nil
}

// newTopology builds the named topology over n nodes; the name must
// have passed config.Network.Validate for n.
func newTopology(kind string, n int) *Topology {
	switch kind {
	case config.TopoRing:
		return ring(n)
	case config.TopoMesh:
		return mesh(n)
	case config.TopoFatTree:
		return fatTree(n)
	}
	return crossbar(n)
}

// crossbar is the ideal fabric: a dedicated link for every ordered node
// pair, so every route is a single hop and no two flows share a link.
func crossbar(n int) *Topology {
	t := &Topology{Name: config.TopoCrossbar, Nodes: n}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				t.addLink(s, d, fmt.Sprintf("xbar:%d->%d", s, d))
			}
		}
	}
	return t.tabulate(func(src, dst int) []int {
		// Links are laid out src-major with the diagonal removed.
		i := src*(n-1) + dst
		if dst > src {
			i--
		}
		return []int{i}
	})
}

// ring is a bidirectional ring: each node has one clockwise and one
// counter-clockwise link, and messages take the shorter direction
// (clockwise on ties).
func ring(n int) *Topology {
	t := &Topology{Name: config.TopoRing, Nodes: n}
	for i := 0; i < n; i++ { // clockwise: link i is i -> i+1
		t.addLink(i, (i+1)%n, fmt.Sprintf("ring:%d->%d", i, (i+1)%n))
	}
	for i := 0; i < n; i++ { // counter-clockwise: link n+i is i -> i-1
		d := (i - 1 + n) % n
		t.addLink(i, d, fmt.Sprintf("ring:%d->%d", i, d))
	}
	return t.tabulate(func(src, dst int) []int {
		cw := (dst - src + n) % n
		if cw <= n-cw { // clockwise link id == src node id
			route := make([]int, cw)
			for i := range route {
				route[i] = (src + i) % n
			}
			return route
		}
		route := make([]int, n-cw) // ccw link id == n + src node id
		for i := range route {
			route[i] = n + (src-i+n)%n
		}
		return route
	})
}

// meshDims returns the most nearly square factorization w*h == n with
// w >= h.
func meshDims(n int) (w, h int) {
	h = 1
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			h = f
		}
	}
	return n / h, h
}

// mesh is a 2D mesh of the most nearly square shape (node id =
// y*width + x) with unidirectional links between grid neighbours and
// deterministic dimension-order routing: X first, then Y.
func mesh(n int) *Topology {
	w, h := meshDims(n)
	t := &Topology{Name: config.TopoMesh, Nodes: n}
	// linkAt[{from, to}] is the link id of the direct channel between
	// two grid neighbours.
	linkAt := make(map[[2]int]int)
	add := func(from, to int) {
		linkAt[[2]int{from, to}] = t.addLink(from, to, fmt.Sprintf("mesh:%d->%d", from, to))
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := y*w + x
			if x+1 < w {
				add(id, id+1)
				add(id+1, id)
			}
			if y+1 < h {
				add(id, id+w)
				add(id+w, id)
			}
		}
	}
	return t.tabulate(func(src, dst int) []int {
		var route []int
		at := src
		for at%w != dst%w {
			next := at + 1
			if dst%w < at%w {
				next = at - 1
			}
			route = append(route, linkAt[[2]int{at, next}])
			at = next
		}
		for at/w != dst/w {
			next := at + w
			if dst/w < at/w {
				next = at - w
			}
			route = append(route, linkAt[[2]int{at, next}])
			at = next
		}
		return route
	})
}

// fatTree is a two-level tree: leaf switches each serving
// config.DefaultFatTreeArity nodes, all joined by one root switch, with
// up-down routing to the common ancestor. Switch ids follow the node
// ids: leaves at n..n+leaves-1, root last.
func fatTree(n int) *Topology {
	arity := config.DefaultFatTreeArity
	leaves := n / arity
	root := n + leaves
	t := &Topology{Name: config.TopoFatTree, Nodes: n}
	// per node: up link to its leaf, down link from its leaf.
	nodeUp, nodeDown := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		leaf := i / arity
		nodeUp[i] = t.addLink(i, n+leaf, fmt.Sprintf("ftree:n%d->l%d", i, leaf))
		nodeDown[i] = t.addLink(n+leaf, i, fmt.Sprintf("ftree:l%d->n%d", leaf, i))
	}
	// per leaf: up link to the root, down link from the root.
	leafUp, leafDown := make([]int, leaves), make([]int, leaves)
	for l := 0; l < leaves; l++ {
		leafUp[l] = t.addLink(n+l, root, fmt.Sprintf("ftree:l%d->root", l))
		leafDown[l] = t.addLink(root, n+l, fmt.Sprintf("ftree:root->l%d", l))
	}
	return t.tabulate(func(src, dst int) []int {
		sl, dl := src/arity, dst/arity
		if sl == dl {
			return []int{nodeUp[src], nodeDown[dst]}
		}
		return []int{nodeUp[src], leafUp[sl], leafDown[dl], nodeDown[dst]}
	})
}
