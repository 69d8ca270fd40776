package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"
)

// TestSystemsOverride runs Figure 5 on a caller-chosen system list,
// including the contention-aware MigRep that only exists as a registry
// entry: the harness must resolve it by name and report it like any
// paper system.
func TestSystemsOverride(t *testing.T) {
	var buf bytes.Buffer
	o := opts(&buf, "radix")
	o.Systems = []string{"ccnuma", "migrep-contend"}
	r, err := RunByName("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Systems) != 2 || r.Systems[0] != "CC-NUMA" || r.Systems[1] != "MigRep-Cont" {
		t.Fatalf("systems = %v", r.Systems)
	}
	for _, sys := range r.Systems {
		if r.Norm("radix", sys) <= 0 {
			t.Errorf("%s: nonpositive normalized time", sys)
		}
	}
	if !strings.Contains(buf.String(), "MigRep-Cont") {
		t.Error("report does not mention the overridden system")
	}
}

// TestSystemsOverrideOrder: an override's systems report in the order
// they were listed, each with a normalized run.
func TestSystemsOverrideOrder(t *testing.T) {
	for _, tc := range []struct {
		systems []string
		want    []string
	}{
		{[]string{"ccnuma", "rnuma"}, []string{"CC-NUMA", "R-NUMA"}},
		{[]string{"rnuma", "ccnuma"}, []string{"R-NUMA", "CC-NUMA"}},
	} {
		var buf bytes.Buffer
		o := opts(&buf, "radix")
		o.Systems = tc.systems
		r, err := RunByName("fig5", o)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.Systems, tc.want) {
			t.Errorf("%v: systems = %v, want %v", tc.systems, r.Systems, tc.want)
		}
		for _, label := range tc.want {
			if run := r.Runs["radix"][label]; run == nil || run.Norm <= 0 {
				t.Errorf("%v: %s has no normalized run", tc.systems, label)
			}
		}
	}
}

// TestSystemsOverrideEverywhere exercises the override on every
// experiment, since each resolves its own defaults.
func TestSystemsOverrideEverywhere(t *testing.T) {
	for _, name := range Experiments() {
		var buf bytes.Buffer
		o := opts(&buf)
		o.Systems = []string{"ccnuma", "rnuma"}
		r, err := RunByName(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Records()) == 0 {
			t.Errorf("%s: no records", name)
		}
	}
}

// TestUnknownSystemListsRegistry pins the error contract: an unknown
// system name must fail up front with the registered names, not deep
// inside a run.
func TestUnknownSystemListsRegistry(t *testing.T) {
	var buf bytes.Buffer
	o := opts(&buf)
	o.Systems = []string{"nosuch-system"}
	_, err := RunByName("fig5", o)
	if err == nil {
		t.Fatal("unknown system accepted")
	}
	for _, want := range []string{"nosuch-system", "ccnuma", "migrep-contend", "rnuma-half-migrep"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestUnknownAppListsRegistry is the same contract for applications.
func TestUnknownAppListsRegistry(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Scale: 8, Apps: []string{"nosuch-app"}, Out: &buf, Audit: true}
	_, err := RunByName("fig5", o)
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	for _, want := range []string{"nosuch-app", "radix", "lu"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestWriteJSON round-trips the structured records through RecordsJSON,
// the renderer behind cmd/experiments -json and the server's answers.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	r, err := RunByName("fig5", opts(&buf, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := RecordsJSON(r.Records())
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := json.Unmarshal(out, &recs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(recs) != len(r.Systems) {
		t.Fatalf("got %d records, want %d", len(recs), len(r.Systems))
	}
	for _, rec := range recs {
		if rec.Experiment != "fig5" || rec.App != "radix" {
			t.Errorf("bad record labels: %+v", rec)
		}
		if rec.Fabric != "crossbar" {
			t.Errorf("fabric = %q, want crossbar", rec.Fabric)
		}
		if rec.Normalized <= 0 || rec.ExecCycles <= 0 {
			t.Errorf("degenerate record: %+v", rec)
		}
		if rec.TrafficBytes <= 0 && rec.System != "Perfect" {
			t.Errorf("%s: no traffic recorded", rec.System)
		}
	}
}

// TestTopoSweepWithContention runs the contention-aware policy where
// it matters — on real fabrics — and checks its records carry
// interconnect stats.
func TestTopoSweepWithContention(t *testing.T) {
	var buf bytes.Buffer
	o := opts(&buf, "radix")
	o.Systems = []string{"migrep", "migrep-contend"}
	r, err := RunByName("toposweep", o)
	if err != nil {
		t.Fatal(err)
	}
	// 2 systems x 4 fabrics.
	if len(r.Systems) != 8 {
		t.Fatalf("systems = %v", r.Systems)
	}
	for _, rec := range r.Records() {
		if rec.MaxLinkBytes <= 0 {
			t.Errorf("%s@%s: no link stats", rec.System, rec.Fabric)
		}
	}
	if !strings.Contains(buf.String(), "MigRep-Cont@ring") {
		t.Error("sweep report missing the contention system on the ring")
	}
}

// TestRNUMAFrameEviction runs R-NUMA's page-cache eviction end to end:
// radix at scale 4 overflows the half-size page cache, so R-NUMA-1/2
// replaces frames (evicting and flushing them) where full-size R-NUMA
// never does. At scale 8 every R-NUMA size reads the same, so no
// golden there covers eviction. The counts and cycles are pinned at
// seed 0, audit on.
func TestRNUMAFrameEviction(t *testing.T) {
	o := Options{Scale: 4, Apps: []string{"radix"}, Systems: []string{"rnuma", "rnuma-half"},
		Parallel: 2, Audit: true, Out: io.Discard}
	r, err := RunByName("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ replacements, execCycles int64 }{
		"R-NUMA":     {0, 56_001_997},
		"R-NUMA-1/2": {1133, 59_319_817},
	}
	recs := r.Records()
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for _, rec := range recs {
		w, ok := want[rec.Label]
		if !ok {
			t.Errorf("unexpected record %q", rec.Label)
			continue
		}
		if rec.Replacements != w.replacements || rec.ExecCycles != w.execCycles {
			t.Errorf("%s: %d replacements in %d cycles, want %d in %d",
				rec.Label, rec.Replacements, rec.ExecCycles, w.replacements, w.execCycles)
		}
	}
}
