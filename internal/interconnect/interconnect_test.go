package interconnect

import (
	"testing"

	"repro/internal/config"
)

// topologies under test, with the hop count each promises for a route.
func testTopologies(t *testing.T, n int) []Topology {
	t.Helper()
	mesh, err := NewMesh(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFatTree(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []Topology{NewCrossbar(n), NewRing(n), mesh, ft}
}

// TestRoutesAreConnectedPaths checks the structural invariant every
// topology must satisfy: Route(src, dst) is a chain of links leading
// from src to dst, and is empty exactly when src == dst.
func TestRoutesAreConnectedPaths(t *testing.T) {
	for _, topo := range testTopologies(t, 8) {
		links := topo.Links()
		for src := 0; src < topo.Nodes(); src++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				route := topo.Route(src, dst)
				if src == dst {
					if len(route) != 0 {
						t.Errorf("%s: route %d->%d not empty", topo.Name(), src, dst)
					}
					continue
				}
				if len(route) == 0 {
					t.Fatalf("%s: no route %d->%d", topo.Name(), src, dst)
				}
				at := src
				for _, id := range route {
					l := links[id]
					if l.Src != at {
						t.Fatalf("%s: route %d->%d: link %s does not start at %d",
							topo.Name(), src, dst, l.Name, at)
					}
					at = l.Dst
				}
				if at != dst {
					t.Errorf("%s: route %d->%d ends at %d", topo.Name(), src, dst, at)
				}
			}
		}
	}
}

func TestCrossbarSingleHop(t *testing.T) {
	c := NewCrossbar(8)
	if got := len(c.Links()); got != 8*7 {
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
			l := c.Links()[r[0]]
			if l.Src != src || l.Dst != dst {
				t.Errorf("crossbar route %d->%d uses link %s", src, dst, l.Name)
			}
		}
	}
}

func TestRingShortestPath(t *testing.T) {
	r := NewRing(8)
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
	m, err := NewMesh(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w, h := m.Dims(); w != 4 || h != 2 {
		t.Fatalf("mesh dims = %dx%d", w, h)
	}
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
				l := m.Links()[id]
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
	f, err := NewFatTree(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.Route(0, 1)); got != 2 {
		t.Errorf("same-leaf route has %d hops, want 2", got)
	}
	if got := len(f.Route(0, 7)); got != 4 {
		t.Errorf("cross-leaf route has %d hops, want 4", got)
	}
	if _, err := NewFatTree(8, 3); err == nil {
		t.Error("arity 3 over 8 nodes should fail")
	}
}

func TestMeshDims(t *testing.T) {
	cases := map[int][2]int{8: {4, 2}, 16: {4, 4}, 12: {4, 3}, 7: {7, 1}, 1: {1, 1}}
	for n, want := range cases {
		if w, h := MeshDims(n); w != want[0] || h != want[1] {
			t.Errorf("MeshDims(%d) = %dx%d, want %dx%d", n, w, h, want[0], want[1])
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
	if f.LocalBytes() != 64 {
		t.Errorf("local bytes = %d, want 64", f.LocalBytes())
	}
}

// TestTraverseConservation checks byte conservation on every topology:
// the per-link totals must equal the per-pair injected bytes multiplied
// by each pair's route hop count.
func TestTraverseConservation(t *testing.T) {
	for _, topo := range testTopologies(t, 8) {
		f := NewFabric(topo, 80, 0)
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
		var want int64
		for src := 0; src < 8; src++ {
			for dst := 0; dst < 8; dst++ {
				want += f.PairBytes(src, dst) * int64(len(topo.Route(src, dst)))
			}
		}
		if got := f.TotalLinkBytes(); got != want {
			t.Errorf("%s: link bytes %d, want %d", topo.Name(), got, want)
		}
		ns := f.Snapshot()
		if got := ns.TotalLinkBytes(); got != want {
			t.Errorf("%s: snapshot link bytes %d, want %d", topo.Name(), got, want)
		}
	}
}

// TestFiniteBandwidthQueues checks the contention model: two messages
// injected at the same time on the same link serialize.
func TestFiniteBandwidthQueues(t *testing.T) {
	f := NewFabric(NewRing(4), 10, 8) // 8 bytes/cycle
	// 64-byte message occupies each link for 8 cycles.
	t1 := f.Traverse(0, 1, 64, 0)
	t2 := f.Traverse(0, 1, 64, 0)
	if t1 != 8+10 {
		t.Errorf("first traverse = %d, want 18", t1)
	}
	if t2 != 16+10 {
		t.Errorf("queued traverse = %d, want 26", t2)
	}
}

func TestBisectionBytes(t *testing.T) {
	f := NewFabric(NewRing(8), 80, 0)
	f.Traverse(0, 7, 100, 0) // crosses the 0..3 | 4..7 cut
	f.Traverse(1, 2, 50, 0)  // stays in the lower half
	ns := f.Snapshot()
	if ns.BisectionBytes != 100 {
		t.Errorf("bisection bytes = %d, want 100", ns.BisectionBytes)
	}
}

func TestExtraHopLatency(t *testing.T) {
	xbar := NewFabric(NewCrossbar(8), 80, 0)
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if got := xbar.ExtraHopLatency(s, d); got != 0 {
				t.Fatalf("crossbar extra hop latency %d->%d = %d, want 0", s, d, got)
			}
		}
	}
	ring := NewFabric(NewRing(8), 80, 0)
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
			t.Errorf("%s: Route allocates %.1f per sweep, want 0", topo.Name(), allocs)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	tm := config.Default()
	if _, err := New(config.Network{Topology: "torus"}, 8, tm); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := New(config.Network{Topology: config.TopoMesh, MeshWidth: 3}, 8, tm); err == nil {
		t.Error("mesh width 3 over 8 nodes accepted")
	}
}

// TestAuditFlagsPastInjection pins the fabric's audit-mode contract:
// with auditing on, a message injected at a time earlier than the
// current event floor (i.e. in the simulated past) is recorded as a
// violation, while injections at or after the floor — including ones at
// an earlier absolute time after the floor moved back — are clean.
func TestAuditFlagsPastInjection(t *testing.T) {
	f := NewFabric(NewRing(8), 10, 0)
	f.EnableAudit()
	f.SetAuditFloor(1000)
	f.Traverse(0, 1, 64, 1000) // at the floor: fine
	f.Traverse(1, 2, 64, 5000) // after the floor: fine
	if got := f.Violations(); len(got) != 0 {
		t.Fatalf("clean traffic flagged: %v", got)
	}
	f.Traverse(2, 3, 64, 999) // in the simulated past
	if got := f.Violations(); len(got) != 1 {
		t.Fatalf("violations = %v, want exactly one", got)
	}
	// A new, earlier floor (the scheduler dispatched an earlier event)
	// legitimizes earlier injections again.
	f.SetAuditFloor(500)
	f.Traverse(3, 4, 64, 500)
	if got := f.Violations(); len(got) != 1 {
		t.Fatalf("violations after floor reset = %v, want still one", got)
	}
	// Byte accounting is unaffected by auditing and by violations.
	if got := f.PairBytes(2, 3); got != 64 {
		t.Errorf("flagged message not counted: pair bytes = %d, want 64", got)
	}
}

// TestAuditOffRecordsNothing checks audit mode is strictly opt-in.
func TestAuditOffRecordsNothing(t *testing.T) {
	f := NewFabric(NewRing(8), 10, 0)
	f.SetAuditFloor(1000)
	f.Traverse(0, 1, 64, 0)
	if got := f.Violations(); len(got) != 0 {
		t.Fatalf("audit-off fabric recorded %v", got)
	}
}

// TestSnapshotPairsMatchFabric checks the published NetStats pair
// matrix is a faithful copy of the fabric's injection ground truth.
func TestSnapshotPairsMatchFabric(t *testing.T) {
	f := NewFabric(NewRing(4), 10, 0)
	f.Traverse(0, 2, 100, 0)
	f.Traverse(3, 1, 50, 0)
	f.Traverse(1, 1, 8, 0) // local
	snap := f.Snapshot()
	if got := snap.Pairs[0][2]; got != 100 {
		t.Errorf("Pairs[0][2] = %d, want 100", got)
	}
	if got := snap.InjectedBytes(); got != 158 {
		t.Errorf("InjectedBytes = %d, want 158", got)
	}
}
