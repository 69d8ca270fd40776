package interconnect

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/config"
)

// newFabric builds an n-node fabric of the named topology whose links
// cost hop cycles each.
func newFabric(t *testing.T, kind string, n int, hop int64) *Fabric {
	t.Helper()
	tm := config.Default()
	tm.NetworkLatency = hop
	f, err := New(config.Network{Topology: kind}, n, tm)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

var topoKinds = []string{config.TopoCrossbar, config.TopoRing, config.TopoMesh, config.TopoFatTree}

// testTopologies returns every topology over n nodes.
func testTopologies(t *testing.T, n int) []*Topology {
	t.Helper()
	var out []*Topology
	for _, kind := range topoKinds {
		out = append(out, newFabric(t, kind, n, 80).Topology())
	}
	return out
}

// TestRoutesAreConnectedPaths checks the structural invariant every
// topology must satisfy: Route(src, dst) is a chain of links leading
// from src to dst, and is empty exactly when src == dst.
func TestRoutesAreConnectedPaths(t *testing.T) {
	for _, topo := range testTopologies(t, 8) {
		links := topo.Links
		for src := 0; src < topo.Nodes; src++ {
			for dst := 0; dst < topo.Nodes; dst++ {
				route := topo.Route(src, dst)
				if src == dst {
					if len(route) != 0 {
						t.Errorf("%s: route %d->%d not empty", topo.Name, src, dst)
					}
					continue
				}
				if len(route) == 0 {
					t.Fatalf("%s: no route %d->%d", topo.Name, src, dst)
				}
				at := src
				for _, id := range route {
					l := links[id]
					if l.Src != at {
						t.Fatalf("%s: route %d->%d: link %s does not start at %d",
							topo.Name, src, dst, l.Name, at)
					}
					at = l.Dst
				}
				if at != dst {
					t.Errorf("%s: route %d->%d ends at %d", topo.Name, src, dst, at)
				}
			}
		}
	}
}

// TestRouteTablesPinned hashes every topology's link list (id, src,
// dst, name) and every Route(src, dst) at 4, 8 and 16 nodes. Link ids
// key the per-link counters, telemetry series and report names, and the
// routes decide every hop charge, so any change to either moves output.
func TestRouteTablesPinned(t *testing.T) {
	want := map[string]string{
		"crossbar/4":  "48866e4410783d91db9719840cc2279c1699db93b0384ede2d88b2b6b403cea7",
		"crossbar/8":  "56442b1c1d99b7c9f99a4c7ba0e78bcc6161284da0c298ac2050e76e71a82fa4",
		"crossbar/16": "13cdfa8908e1ca56d9aab236b097d8990e222f4765a01329586a54cd43049a5d",
		"ring/4":      "87afe1c5287db6126cc51266e8267c69128c15ecb961df18561be2bf9284f98b",
		"ring/8":      "1b75abfc5faaea1af401895a6b8424ea9b9f69ef995bc97b5d84229aeb5b0745",
		"ring/16":     "5c6358ac713ee8e20a17f6536a5da9d0d7236f7c1dcafd7cb0fe9708e213d113",
		"mesh/4":      "4186c36c367cfc4046391908c24cbae50ca081fd5ef36d7338803988758ddddd",
		"mesh/8":      "9ba48636d5116400de4983d5883a1706037982a4afa3779412a49decbe37ad13",
		"mesh/16":     "6ecbfe2372d75ad569e72010e211c5ebf0841dc3b7e166f8554e4ab0e6656aa5",
		"fattree/4":   "a63fc0b2ef600d2939a4a7899006c99c8cc6cbbf79207fa0f2fe16bd662a038b",
		"fattree/8":   "d39e6a4e09550913fb173fe64c99e06184c5d1a2a1c83af7d393ec8c856cc02d",
		"fattree/16":  "23816153927d77fce5bb2c89ae9b0e3f0b8605bab54135a1c351b0710b5742ba",
	}
	for _, kind := range topoKinds {
		for _, n := range []int{4, 8, 16} {
			topo := newFabric(t, kind, n, 80).Topology()
			h := sha256.New()
			for _, l := range topo.Links {
				fmt.Fprintf(h, "link %d %d %d %s\n", l.ID, l.Src, l.Dst, l.Name)
			}
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					fmt.Fprintf(h, "route %d %d %v\n", s, d, topo.Route(s, d))
				}
			}
			key := fmt.Sprintf("%s/%d", kind, n)
			got := hex.EncodeToString(h.Sum(nil))
			if got != want[key] {
				t.Errorf("%s: route table digest %s, want %s", key, got, want[key])
			}
		}
	}
}

func TestCrossbarSingleHop(t *testing.T) {
	c := newFabric(t, config.TopoCrossbar, 8, 80).Topology()
	if got := len(c.Links); got != 8*7 {
		t.Errorf("crossbar links = %d, want 56", got)
	}
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if src == dst {
				continue
			}
			r := c.Route(src, dst)
			if len(r) != 1 {
				t.Fatalf("crossbar route %d->%d has %d hops", src, dst, len(r))
			}
			l := c.Links[r[0]]
			if l.Src != src || l.Dst != dst {
				t.Errorf("crossbar route %d->%d uses link %s", src, dst, l.Name)
			}
		}
	}
}

func TestRingShortestPath(t *testing.T) {
	r := newFabric(t, config.TopoRing, 8, 80).Topology()
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if src == dst {
				continue
			}
			cw := (dst - src + 8) % 8
			want := cw
			if 8-cw < cw {
				want = 8 - cw
			}
			if got := len(r.Route(src, dst)); got != want {
				t.Errorf("ring route %d->%d has %d hops, want %d", src, dst, got, want)
			}
		}
	}
	// The tie (distance 4) goes clockwise: first link is src's cw link.
	if route := r.Route(0, 4); route[0] != 0 {
		t.Errorf("ring tie route 0->4 starts with link %d, want clockwise 0", route[0])
	}
}

func TestMeshDimensionOrder(t *testing.T) {
	m := newFabric(t, config.TopoMesh, 8, 80).Topology() // 4x2
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if src == dst {
				continue
			}
			dx := dst%4 - src%4
			if dx < 0 {
				dx = -dx
			}
			dy := dst/4 - src/4
			if dy < 0 {
				dy = -dy
			}
			route := m.Route(src, dst)
			if len(route) != dx+dy {
				t.Fatalf("mesh route %d->%d has %d hops, want %d", src, dst, len(route), dx+dy)
			}
			// Dimension order: every X-direction link precedes any
			// Y-direction link.
			sawY := false
			for _, id := range route {
				l := m.Links[id]
				dYlink := l.Dst-l.Src == 4 || l.Src-l.Dst == 4
				if dYlink {
					sawY = true
				} else if sawY {
					t.Errorf("mesh route %d->%d corrects X after Y", src, dst)
				}
			}
		}
	}
}

func TestFatTreeUpDown(t *testing.T) {
	f := newFabric(t, config.TopoFatTree, 8, 80).Topology()
	if got := len(f.Route(0, 1)); got != 2 {
		t.Errorf("same-leaf route has %d hops, want 2", got)
	}
	if got := len(f.Route(0, 7)); got != 4 {
		t.Errorf("cross-leaf route has %d hops, want 4", got)
	}
}

func TestMeshDims(t *testing.T) {
	cases := map[int][2]int{8: {4, 2}, 16: {4, 4}, 12: {4, 3}, 7: {7, 1}, 1: {1, 1}}
	for n, want := range cases {
		if w, h := meshDims(n); w != want[0] || h != want[1] {
			t.Errorf("meshDims(%d) = %dx%d, want %dx%d", n, w, h, want[0], want[1])
		}
	}
}

// TestCrossbarTraverseMatchesFlatLatency pins the compatibility contract:
// on the default crossbar a traversal costs exactly the flat network
// latency, with no queuing.
func TestCrossbarTraverseMatchesFlatLatency(t *testing.T) {
	tm := config.Default()
	f, err := New(config.Network{}, 8, tm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := f.Traverse(0, 5, 4608, 1000); got != 1000+tm.NetworkLatency {
			t.Fatalf("crossbar traverse = %d, want %d", got, 1000+tm.NetworkLatency)
		}
	}
	if got := f.Traverse(3, 3, 64, 500); got != 500 {
		t.Errorf("self traverse = %d, want 500 (no network)", got)
	}
	if got := f.Stats().LocalBytes; got != 64 {
		t.Errorf("local bytes = %d, want 64", got)
	}
}

// TestTraverseConservation checks byte conservation on every topology:
// the per-link totals must equal the per-pair injected bytes multiplied
// by each pair's route hop count.
func TestTraverseConservation(t *testing.T) {
	for _, kind := range topoKinds {
		f := newFabric(t, kind, 8, 80)
		topo := f.Topology()
		var injected int64
		for src := 0; src < 8; src++ {
			for dst := 0; dst < 8; dst++ {
				b := int64(64 + 8*src + dst)
				f.Traverse(src, dst, b, 0)
				if src != dst {
					injected += b
				}
			}
		}
		ns := f.Stats()
		var want int64
		for src := 0; src < 8; src++ {
			for dst := 0; dst < 8; dst++ {
				want += ns.Pairs[src][dst] * int64(len(topo.Route(src, dst)))
			}
		}
		if got := ns.TotalLinkBytes(); got != want {
			t.Errorf("%s: link bytes %d, want %d", topo.Name, got, want)
		}
		if got := ns.InjectedBytes() - ns.LocalBytes; got != injected {
			t.Errorf("%s: pair bytes %d, want %d", topo.Name, got, injected)
		}
	}
}

func TestBisectionBytes(t *testing.T) {
	f := newFabric(t, config.TopoRing, 8, 80)
	f.Traverse(0, 7, 100, 0) // crosses the 0..3 | 4..7 cut
	f.Traverse(1, 2, 50, 0)  // stays in the lower half
	ns := f.Stats()
	if ns.BisectionBytes != 100 {
		t.Errorf("bisection bytes = %d, want 100", ns.BisectionBytes)
	}
}

func TestExtraHopLatency(t *testing.T) {
	xbar := newFabric(t, config.TopoCrossbar, 8, 80)
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if got := xbar.ExtraHopLatency(s, d); got != 0 {
				t.Fatalf("crossbar extra hop latency %d->%d = %d, want 0", s, d, got)
			}
		}
	}
	ring := newFabric(t, config.TopoRing, 8, 80)
	if got := ring.ExtraHopLatency(0, 4); got != 3*80 {
		t.Errorf("ring extra 0->4 = %d, want 240", got)
	}
	if got := ring.ExtraHopLatency(0, 1); got != 0 {
		t.Errorf("ring extra 0->1 = %d, want 0", got)
	}
	if got := ring.ExtraHopLatency(3, 3); got != 0 {
		t.Errorf("ring extra 3->3 = %d, want 0", got)
	}
}

func TestRouteDoesNotAllocate(t *testing.T) {
	topos := testTopologies(t, 8)
	for _, topo := range topos {
		allocs := testing.AllocsPerRun(100, func() {
			for s := 0; s < 8; s++ {
				for d := 0; d < 8; d++ {
					topo.Route(s, d)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Route allocates %.1f per sweep, want 0", topo.Name, allocs)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	tm := config.Default()
	if _, err := New(config.Network{Topology: "torus"}, 8, tm); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := New(config.Network{Topology: config.TopoFatTree}, 6, tm); err == nil {
		t.Error("fat-tree over 6 nodes accepted")
	}
}

// TestStatsPairsCountInjection checks the published NetStats pair
// matrix counts each message's bytes once, at its source and
// destination, whatever its route.
func TestStatsPairsCountInjection(t *testing.T) {
	f := newFabric(t, config.TopoRing, 4, 10)
	f.Traverse(0, 2, 100, 0)
	f.Traverse(3, 1, 50, 0)
	f.Traverse(1, 1, 8, 0) // local
	ns := f.Stats()
	if got := ns.Pairs[0][2]; got != 100 {
		t.Errorf("Pairs[0][2] = %d, want 100", got)
	}
	if got := ns.InjectedBytes(); got != 158 {
		t.Errorf("InjectedBytes = %d, want 158", got)
	}
}

// TestFabricsShareATopology: fabrics built on one Topology count
// apart and leave it as NewTopology built it.
func TestFabricsShareATopology(t *testing.T) {
	topo, err := NewTopology(config.Network{Topology: config.TopoRing}, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewFabric(topo, config.Default()), NewFabric(topo, config.Default())
	a.Traverse(0, 4, 72, 0)
	a.Deliver(3, 3, 8, 0)
	if nb := b.Stats(); nb.TotalLinkBytes() != 0 || nb.LocalBytes != 0 {
		t.Errorf("fabric b counted %d link and %d local bytes fabric a carried", nb.TotalLinkBytes(), nb.LocalBytes)
	}
	if got := a.Stats().TotalLinkBytes(); got != 4*72 {
		t.Errorf("fabric a counted %d link bytes, want %d", got, 4*72)
	}
	fresh, err := NewTopology(config.Network{Topology: config.TopoRing}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(topo, fresh) {
		t.Error("counting on a topology changed it")
	}
}
