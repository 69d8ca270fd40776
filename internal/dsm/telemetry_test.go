package dsm

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// telemetryWorkload is one (trace, spec, fabric) combination the
// telemetry integration tests run.
type telemetryWorkload struct {
	name string
	tr   *trace.Trace
	spec Spec
	net  config.Network
}

// telemetryWorkloads are the combinations the telemetry integration
// tests run: together they exercise every hook — migrations,
// replications/grants/collapses, relocations and frame flushes,
// soft-fault copies, lock traffic — under every registered system, on
// the crossbar and on each multi-hop fabric.
func telemetryWorkloads(t *testing.T) []telemetryWorkload {
	t.Helper()
	traces := map[string]*trace.Trace{}
	gen := func(name string) *trace.Trace {
		if tr, ok := traces[name]; ok {
			return tr
		}
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := app.Generate(apps.Params{CPUs: 32, Scale: 8})
		if err != nil {
			t.Fatal(err)
		}
		traces[name] = tr
		return tr
	}
	ws := []telemetryWorkload{
		{"ocean/migrep", gen("ocean"), MigRep(), config.Network{}},
		{"ocean/rnuma", gen("ocean"), RNUMA(), config.Network{}},
		{"lu/scoma", gen("lu"), SCOMA(), config.Network{}},
		{"migratory/migrep@ring", gen("migratory"), MigRep(), config.Network{Topology: config.TopoRing}},
		{"migratory/migrep@mesh", gen("migratory"), MigRep(), config.Network{Topology: config.TopoMesh}},
		{"ocean/migrep@fattree", gen("ocean"), MigRep(), config.Network{Topology: config.TopoFatTree}},
		{"radix/rnuma", gen("radix"), RNUMA(), config.Network{}},
	}
	for _, sys := range Systems() {
		ws = append(ws, telemetryWorkload{"migratory/" + sys.Name, gen("migratory"),
			sys.New(config.DefaultThresholds()), config.Network{}})
	}
	return ws
}

// runWithTelemetry executes a trace with a collector attached and
// returns both.
func runWithTelemetry(t *testing.T, tr *trace.Trace, spec Spec, net config.Network, timeline bool) (*stats.Sim, *telemetry.Collector) {
	t.Helper()
	cl := config.DefaultCluster()
	cl.Net = net
	col := telemetry.New(telemetry.Config{Window: 1 << 16, Timeline: timeline})
	sim, err := RunWithOptions(tr, spec, cl, config.Default(), config.DefaultThresholds(),
		RunOptions{Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	return sim, col
}

// TestTelemetryConservation pins the reconciliation invariant the
// telemetry package promises: every windowed series sums exactly to its
// end-of-run aggregate counter — per-link fabric bytes against
// stats.NetStats, per-node traffic against stats.Node.TrafficBytes,
// page-op and miss counts against the stats breakdowns, and dispatches
// against the trace's op count.
func TestTelemetryConservation(t *testing.T) {
	for _, w := range telemetryWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			sim, col := runWithTelemetry(t, w.tr, w.spec, w.net, false)

			// Per-link windowed bytes == NetStats link counters, link by link.
			if got, want := col.Links(), len(sim.Net.Links); got != want {
				t.Fatalf("collector tracks %d links, fabric has %d", got, want)
			}
			for id, l := range sim.Net.Links {
				if got := col.LinkTotal(id); got != l.Bytes {
					t.Errorf("link %s: windowed total %d != counter %d", l.Name, got, l.Bytes)
				}
				if name := col.LinkName(id); name != l.Name {
					t.Errorf("link %d name %q != %q", id, name, l.Name)
				}
			}

			// Per-node windowed traffic == TrafficBytes, node by node.
			for n := range sim.Nodes {
				if got, want := col.NodeTotal(n), sim.Nodes[n].TrafficBytes; got != want {
					t.Errorf("node %d: windowed traffic %d != TrafficBytes %d", n, got, want)
				}
			}

			// Page-op and miss windowed counts == the stats breakdowns.
			for k := 0; k < stats.NumPageOps; k++ {
				var want int64
				for n := range sim.Nodes {
					want += sim.Nodes[n].PageOps[k]
				}
				if got := col.PageOpTotal(stats.PageOp(k)); got != want {
					t.Errorf("pageop %s: windowed total %d != stats %d", stats.PageOp(k), got, want)
				}
			}
			for cl := 0; cl < stats.NumMissClasses; cl++ {
				var wantR, wantL int64
				for n := range sim.Nodes {
					wantR += sim.Nodes[n].RemoteMisses[cl]
					wantL += sim.Nodes[n].LocalMisses[cl]
				}
				if got := col.MissTotal(stats.MissClass(cl), true); got != wantR {
					t.Errorf("remote %s: windowed total %d != stats %d", stats.MissClass(cl), got, wantR)
				}
				if got := col.MissTotal(stats.MissClass(cl), false); got != wantL {
					t.Errorf("local %s: windowed total %d != stats %d", stats.MissClass(cl), got, wantL)
				}
			}

			// One dispatch per trace op.
			if got, want := col.DispatchTotal(), int64(w.tr.Ops()); got != want {
				t.Errorf("dispatches = %d, want %d trace ops", got, want)
			}
		})
	}
}

// TestTelemetryObservational pins the zero-interference guarantee: a
// run with a collector attached (timeline included) produces
// byte-identical statistics to the same run without one.
func TestTelemetryObservational(t *testing.T) {
	for _, w := range telemetryWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			cl := config.DefaultCluster()
			cl.Net = w.net
			plain, err := RunWithOptions(w.tr, w.spec, cl, config.Default(), config.DefaultThresholds(), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			instrumented, _ := runWithTelemetry(t, w.tr, w.spec, w.net, true)
			if !reflect.DeepEqual(plain, instrumented) {
				t.Errorf("telemetry changed the simulation: exec %d vs %d, traffic %d vs %d",
					plain.ExecCycles, instrumented.ExecCycles,
					plain.TotalTrafficBytes(), instrumented.TotalTrafficBytes())
			}
		})
	}
}

// TestTimelineSerializingSpansDisjoint pins the page-busy invariant on
// the event timeline: operations that hold the page-busy horizon
// (replicate, grant, collapse, migrate) cannot overlap in simulated
// time on the same page — each later accessor waits the horizon out
// before a new operation can begin.
func TestTimelineSerializingSpansDisjoint(t *testing.T) {
	sawSerializing := false
	for _, w := range telemetryWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			_, col := runWithTelemetry(t, w.tr, w.spec, w.net, true)
			byPage := map[uint64][]telemetry.Event{}
			for _, e := range col.Events() {
				if e.End < e.Start {
					t.Errorf("%s on page %d: end %d before start %d", e.Kind, e.Page, e.End, e.Start)
				}
				if e.Kind.Serializing() {
					byPage[e.Page] = append(byPage[e.Page], e)
				}
			}
			for page, evs := range byPage {
				sawSerializing = true
				sort.Slice(evs, func(i, j int) bool {
					if evs[i].Start != evs[j].Start {
						return evs[i].Start < evs[j].Start
					}
					return evs[i].End < evs[j].End
				})
				for i := 1; i < len(evs); i++ {
					if evs[i].Start < evs[i-1].End {
						t.Errorf("page %d: %s [%d,%d] overlaps %s [%d,%d]",
							page, evs[i].Kind, evs[i].Start, evs[i].End,
							evs[i-1].Kind, evs[i-1].Start, evs[i-1].End)
					}
				}
			}
		})
	}
	if !sawSerializing {
		t.Error("no serializing events across all workloads; test exercises nothing")
	}
}

// TestTimelineEventsMirrorPageOpCounts ties the timeline to the
// aggregate page-op counters: with the timeline on, the events of each
// kind must match the corresponding stats.PageOp totals exactly.
func TestTimelineEventsMirrorPageOpCounts(t *testing.T) {
	for _, w := range telemetryWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			sim, col := runWithTelemetry(t, w.tr, w.spec, w.net, true)
			kinds := map[telemetry.EventKind]int64{}
			for _, e := range col.Events() {
				kinds[e.Kind]++
			}
			var ops [stats.NumPageOps]int64
			for n := range sim.Nodes {
				for k := 0; k < stats.NumPageOps; k++ {
					ops[k] += sim.Nodes[n].PageOps[k]
				}
			}
			// Replication counts first replicas, grants, and fault copies.
			if got, want := kinds[telemetry.EvReplicate]+kinds[telemetry.EvGrant]+kinds[telemetry.EvFaultCopy],
				ops[stats.Replication]; got != want {
				t.Errorf("replicate+grant+fault-copy events = %d, stats replications = %d", got, want)
			}
			if got, want := kinds[telemetry.EvMigrate], ops[stats.Migration]; got != want {
				t.Errorf("migrate events = %d, stats migrations = %d", got, want)
			}
			if got, want := kinds[telemetry.EvCollapse], ops[stats.Collapse]; got != want {
				t.Errorf("collapse events = %d, stats collapses = %d", got, want)
			}
			if got, want := kinds[telemetry.EvRelocate], ops[stats.Relocation]; got != want {
				t.Errorf("relocate events = %d, stats relocations = %d", got, want)
			}
			if got, want := kinds[telemetry.EvFrameFlush], ops[stats.Replacement]; got != want {
				t.Errorf("frame-flush events = %d, stats replacements = %d", got, want)
			}
		})
	}
}
