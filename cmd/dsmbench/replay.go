package main

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/trace"
)

// simRun is one simulation an experiment performs: a system under a
// timing/threshold environment on a fabric, reported under label.
type simRun struct {
	label string
	spec  dsm.Spec
	tm    config.Timing
	th    config.Thresholds
	net   config.Network
}

// baselineRun is the normalization anchor every experiment runs first
// on each application: perfect CC-NUMA on the ideal crossbar.
func baselineRun() simRun {
	return simRun{spec: dsm.PerfectCCNUMA(), tm: config.Default(), th: config.DefaultThresholds()}
}

// experimentRuns lists the simulations harness.RunByName(exp, o)
// performs on each application, in record order. The traced run
// replays them through dsm and audit directly, and checks that the
// records it rebuilds equal the harness's, so a divergence between this
// list and the harness fails the run rather than skewing its numbers.
func experimentRuns(exp string, o harness.Options) ([]simRun, error) {
	tm, th := config.Default(), config.DefaultThresholds()
	resolve := func(def []dsm.Spec, tm config.Timing, th config.Thresholds) ([]simRun, error) {
		specs := def
		if len(o.Systems) > 0 {
			var err error
			if specs, err = dsm.ResolveSpecs(o.Systems, th); err != nil {
				return nil, err
			}
		}
		out := make([]simRun, len(specs))
		for i, s := range specs {
			out[i] = simRun{label: s.Name, spec: s, tm: tm, th: th}
		}
		return out, nil
	}
	var runs []simRun
	var err error
	switch exp {
	case "fig5":
		runs, err = resolve(dsm.AllBaseSystems(), tm, th)
	case "table4":
		runs, err = resolve([]dsm.Spec{dsm.CCNUMA(), dsm.MigRep(), dsm.RNUMA()}, tm, th)
	case "fig7":
		runs, err = resolve([]dsm.Spec{dsm.CCNUMA(), dsm.MigRep(), dsm.RNUMA()}, tm.ScaleNetwork(4), th)
	case "fig8":
		runs, err = resolve([]dsm.Spec{dsm.CCNUMA(), dsm.MigRep(), dsm.RNUMAHalf(),
			dsm.RNUMAHalfMigRep(8 * th.RNUMAThreshold), dsm.RNUMA()}, tm, th)
	case "fig6":
		slowTM, slowTH := config.Slow(), config.SlowThresholds()
		fast, slow := []dsm.Spec{dsm.MigRep(), dsm.RNUMA()}, []dsm.Spec{dsm.MigRep(), dsm.RNUMA()}
		if len(o.Systems) > 0 {
			if fast, err = dsm.ResolveSpecs(o.Systems, th); err != nil {
				return nil, err
			}
			if slow, err = dsm.ResolveSpecs(o.Systems, slowTH); err != nil {
				return nil, err
			}
		}
		for i := range fast {
			runs = append(runs,
				simRun{label: fast[i].Name + "-Fast", spec: fast[i], tm: tm, th: th},
				simRun{label: slow[i].Name + "-Slow", spec: slow[i], tm: slowTM, th: slowTH})
		}
	case "toposweep":
		var base []simRun
		if base, err = resolve([]dsm.Spec{dsm.CCNUMA(), dsm.MigRep(), dsm.RNUMA()}, tm, th); err != nil {
			return nil, err
		}
		for _, topo := range []string{config.TopoCrossbar, config.TopoRing, config.TopoMesh, config.TopoFatTree} {
			for _, r := range base {
				r.label = r.spec.Name + "@" + topo
				r.net = config.Network{Topology: topo}
				runs = append(runs, r)
			}
		}
		return runs, nil
	default:
		return nil, fmt.Errorf("no simulation list for experiment %q", exp)
	}
	if err != nil {
		return nil, err
	}
	if o.Fabric != "" {
		for i := range runs {
			runs[i].net = config.Network{Topology: o.Fabric}
		}
	}
	return runs, nil
}

// record flattens one replayed simulation exactly as harness.Result
// .Records does.
func record(exp, app string, r simRun, s, base *stats.Sim) harness.Record {
	var upgrades, faults int64
	for i := range s.Nodes {
		upgrades += s.Nodes[i].Upgrades
		faults += s.Nodes[i].PageFaults
	}
	rec := harness.Record{
		Schema: harness.RecordSchema, Experiment: exp, App: app,
		System: r.spec.Name, Label: r.label, Fabric: r.net.Kind(),
		Normalized: s.Normalized(base), ExecCycles: s.ExecCycles,

		RemoteMisses:     s.TotalRemoteMisses(),
		Cold:             s.RemoteMissesByClass(stats.Cold),
		Coherence:        s.RemoteMissesByClass(stats.Coherence),
		CapacityConflict: s.RemoteMissesByClass(stats.CapacityConflict),

		Migrations:   s.PageOpsByKind(stats.Migration),
		Replications: s.PageOpsByKind(stats.Replication),
		Collapses:    s.PageOpsByKind(stats.Collapse),
		Relocations:  s.PageOpsByKind(stats.Relocation),
		Replacements: s.PageOpsByKind(stats.Replacement),

		Upgrades: upgrades, PageFaults: faults, TrafficBytes: s.TotalTrafficBytes(),
	}
	if s.Net != nil {
		rec.MaxLinkBytes = s.Net.MaxLink().Bytes
		rec.BisectionBytes = s.Net.BisectionBytes
	}
	return rec
}

// appList resolves the applications a run covers (nil = the paper's
// seven), as the harness does.
func appList(names []string) ([]apps.Info, error) {
	if len(names) == 0 {
		return apps.Paper(), nil
	}
	out := make([]apps.Info, 0, len(names))
	for _, n := range names {
		a, err := apps.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// generateAll generates every application trace of o, one span per
// trace, keyed by application name, and returns the seconds it took.
func generateAll(t *tracer, o harness.Options) (map[string]*trace.Trace, float64, error) {
	list, err := appList(o.Apps)
	if err != nil {
		return nil, 0, err
	}
	p := apps.Params{CPUs: config.DefaultCluster().TotalCPUs(), Scale: max(o.Scale, 1), Seed: o.Seed}
	out := make(map[string]*trace.Trace, len(list))
	secs := 0.0
	for _, a := range list {
		var tr *trace.Trace
		secs += t.do("apps", "apps.Info.Generate", func() { tr, err = a.Generate(p) })
		if err != nil {
			return nil, 0, fmt.Errorf("generating %s: %w", a.Name, err)
		}
		out[a.Name] = tr
	}
	return out, secs, nil
}

// layerTotals accumulates the dsm, cache, interconnect and audit layers'
// work over replayed simulations.
type layerTotals struct {
	machines, ops                            float64
	remote, cold, coherence, capacity, local float64
	upgrades, faults                         float64
	pageOps                                  [stats.NumPageOps]float64
	execCycles, stall, sync, pageOpCycles    float64
	blockHits, pageHits                      float64
	traffic, linkBytes, maxLink, bisection   float64
	buildS, executeS, executeAuditS, checkS  float64
	records                                  []harness.Record
}

func (l *layerTotals) add(s *stats.Sim, ops int) {
	l.machines++
	l.ops += float64(ops)
	l.remote += float64(s.TotalRemoteMisses())
	l.cold += float64(s.RemoteMissesByClass(stats.Cold))
	l.coherence += float64(s.RemoteMissesByClass(stats.Coherence))
	l.capacity += float64(s.RemoteMissesByClass(stats.CapacityConflict))
	for k := range l.pageOps {
		l.pageOps[k] += float64(s.PageOpsByKind(stats.PageOp(k)))
	}
	l.execCycles += float64(s.ExecCycles)
	for i := range s.Nodes {
		n := &s.Nodes[i]
		for _, v := range n.LocalMisses {
			l.local += float64(v)
		}
		l.upgrades += float64(n.Upgrades)
		l.faults += float64(n.PageFaults)
		l.stall += float64(n.StallCycles)
		l.sync += float64(n.SyncCycles)
		l.pageOpCycles += float64(n.PageOpCycles)
		l.blockHits += float64(n.BlockCacheHits)
		l.pageHits += float64(n.PageCacheHits)
		l.traffic += float64(n.TrafficBytes)
	}
	if s.Net != nil {
		l.linkBytes += float64(s.Net.TotalLinkBytes())
		l.maxLink = max(l.maxLink, float64(s.Net.MaxLink().Bytes))
		l.bisection += float64(s.Net.BisectionBytes)
	}
}

// simulate builds a machine for r, optionally audited, replays tr on it
// and returns its statistics, with a span around each layer call.
func simulate(t *tracer, l *layerTotals, r simRun, tr *trace.Trace, audited bool) (*stats.Sim, error) {
	cl := config.DefaultCluster()
	cl.Net = r.net
	var m *dsm.Machine
	var err error
	build := t.do("dsm", "dsm.NewMachine", func() {
		m, err = dsm.NewMachine(r.spec, cl, r.tm, r.th, tr.Footprint, tr.Name)
	})
	if err != nil {
		return nil, err
	}
	if !audited {
		l.executeS += t.do("dsm", "dsm.Machine.Execute", func() {
			t.attr("audit=off")
			err = m.Execute(tr)
		})
		return m.Stats(), err
	}
	l.buildS += build
	m.EnableAudit()
	l.executeAuditS += t.do("dsm", "dsm.Machine.Execute", func() { err = m.Execute(tr) })
	if err != nil {
		return nil, err
	}
	l.checkS += t.do("audit", "audit.Check", func() { err = audit.Check(m) })
	if err != nil {
		return nil, err
	}
	var s *stats.Sim
	t.do("dsm", "dsm.Machine.Stats", func() { s = m.Stats() })
	l.add(s, tr.Ops())
	return s, nil
}

// replay performs experiment exp's simulations on the given traces
// twice: audited, as the harness runs them, rebuilding their records;
// then unaudited, to price the online audit.
func replay(t *tracer, l *layerTotals, exp string, o harness.Options, traces map[string]*trace.Trace) error {
	runs, err := experimentRuns(exp, o)
	if err != nil {
		return err
	}
	list, err := appList(o.Apps)
	if err != nil {
		return err
	}
	t.do("dsmbench", "replay", func() {
		for _, a := range list {
			tr := traces[a.Name]
			var base, s *stats.Sim
			if base, err = simulate(t, l, baselineRun(), tr, true); err != nil {
				return
			}
			for _, r := range runs {
				if s, err = simulate(t, l, r, tr, true); err != nil {
					return
				}
				l.records = append(l.records, record(exp, a.Name, r, s, base))
			}
		}
	})
	if err != nil {
		return fmt.Errorf("replaying %s: %w", exp, err)
	}
	t.do("dsmbench", "replay", func() {
		t.attr("audit=off")
		for _, a := range list {
			for _, r := range append([]simRun{baselineRun()}, runs...) {
				if _, err = simulate(t, l, r, traces[a.Name], false); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return fmt.Errorf("replaying %s without audit: %w", exp, err)
	}
	return nil
}

// set writes the accumulated totals into a per-layer metric map.
func (l *layerTotals) set(m map[string]float64) {
	m["dsm.build_s"] = l.buildS
	m["dsm.machines"] = l.machines
	m["dsm.execute_s"] = l.executeS
	m["dsm.ops"] = l.ops
	if l.ops > 0 {
		m["dsm.execute_ns_per_op"] = l.executeS * 1e9 / l.ops
		m["dsm.remote_per_kop"] = l.remote * 1000 / l.ops
	}
	m["dsm.remote_misses"] = l.remote
	m["dsm.cold_misses"] = l.cold
	m["dsm.coherence_misses"] = l.coherence
	m["dsm.capacity_misses"] = l.capacity
	m["dsm.local_misses"] = l.local
	m["dsm.upgrades"] = l.upgrades
	m["dsm.page_faults"] = l.faults
	var pageOps float64
	for _, v := range l.pageOps {
		pageOps += v
	}
	m["dsm.page_ops"] = pageOps
	m["dsm.migrations"] = l.pageOps[stats.Migration]
	m["dsm.replications"] = l.pageOps[stats.Replication]
	m["dsm.collapses"] = l.pageOps[stats.Collapse]
	m["dsm.relocations"] = l.pageOps[stats.Relocation]
	m["dsm.replacements"] = l.pageOps[stats.Replacement]
	m["dsm.exec_cycles"] = l.execCycles
	m["dsm.stall_cycles"] = l.stall
	m["dsm.sync_cycles"] = l.sync
	m["dsm.pageop_cycles"] = l.pageOpCycles
	m["cache.block_cache_hits"] = l.blockHits
	m["cache.page_cache_hits"] = l.pageHits
	m["interconnect.traffic_bytes"] = l.traffic
	m["interconnect.link_bytes"] = l.linkBytes
	m["interconnect.max_link_bytes"] = l.maxLink
	m["interconnect.bisection_bytes"] = l.bisection
	m["audit.check_s"] = l.checkS
	m["audit.online_s"] = l.executeAuditS - l.executeS
}
