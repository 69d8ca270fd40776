package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/stats"
)

// cannedResult builds a small fixed Result by hand — two apps on two
// systems with distinct, easily recognizable counter values — so the
// renderers can be checked without running a simulation. (The rendering
// tests that lived in internal/stats before the Result redesign moved
// here with the renderers.)
func cannedResult() *Result {
	mk := func(app, system string, exec int64, norm float64, remote, traffic int64) *Run {
		s := stats.New(system, app, 2)
		s.ExecCycles = exec
		s.Nodes[0].RemoteMisses[stats.Cold] = remote
		s.Nodes[1].RemoteMisses[stats.CapacityConflict] = 2 * remote
		s.Nodes[0].PageOps[stats.Migration] = 3
		s.Nodes[1].PageOps[stats.Replication] = 4
		s.Nodes[0].Upgrades = 5
		s.Nodes[1].PageFaults = 6
		s.Nodes[0].TrafficBytes = traffic
		return &Run{App: app, System: system, Label: system, Fabric: "crossbar", Stats: s, Norm: norm}
	}
	return &Result{
		Name:     "canned",
		Systems:  []string{"CC-NUMA", "R-NUMA"},
		AppOrder: []string{"alpha", "beta"},
		Runs: map[string]map[string]*Run{
			"alpha": {
				"CC-NUMA": mk("alpha", "CC-NUMA", 1000, 1.125, 10, 4096),
				"R-NUMA":  mk("alpha", "R-NUMA", 2000, 2.25, 20, 8192),
			},
			"beta": {
				"CC-NUMA": mk("beta", "CC-NUMA", 3000, 1.5, 30, 1024),
				"R-NUMA":  mk("beta", "R-NUMA", 4000, 3.0, 40, 2048),
			},
		},
	}
}

func TestWriteTextRendersNormTable(t *testing.T) {
	var buf bytes.Buffer
	cannedResult().WriteText(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 2 apps + mean
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "CC-NUMA") || !strings.Contains(lines[0], "R-NUMA") {
		t.Errorf("header missing systems: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "alpha") || !strings.Contains(lines[1], "1.125") || !strings.Contains(lines[1], "2.250") {
		t.Errorf("alpha row wrong: %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "mean") || !strings.Contains(lines[3], "1.312") || !strings.Contains(lines[3], "2.625") {
		t.Errorf("mean row wrong (want means 1.312 and 2.625): %q", lines[3])
	}
}

func TestRecordsFlattenInPresentationOrder(t *testing.T) {
	recs := cannedResult().Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	wantOrder := []struct{ app, system string }{
		{"alpha", "CC-NUMA"}, {"alpha", "R-NUMA"}, {"beta", "CC-NUMA"}, {"beta", "R-NUMA"},
	}
	for i, w := range wantOrder {
		if recs[i].App != w.app || recs[i].System != w.system {
			t.Errorf("record %d: got (%s, %s), want (%s, %s)", i, recs[i].App, recs[i].System, w.app, w.system)
		}
		if recs[i].Experiment != "canned" {
			t.Errorf("record %d: experiment %q", i, recs[i].Experiment)
		}
	}
	r0 := recs[0] // alpha on CC-NUMA: remote=10 cold + 20 cap/conf
	if r0.RemoteMisses != 30 || r0.Cold != 10 || r0.CapacityConflict != 20 {
		t.Errorf("miss breakdown wrong: %+v", r0)
	}
	if r0.Migrations != 3 || r0.Replications != 4 || r0.Upgrades != 5 || r0.PageFaults != 6 {
		t.Errorf("page-op/upgrade breakdown wrong: %+v", r0)
	}
	if r0.Normalized != 1.125 || r0.ExecCycles != 1000 || r0.TrafficBytes != 4096 {
		t.Errorf("headline numbers wrong: %+v", r0)
	}
	if r0.Fabric != "crossbar" || r0.Label != "CC-NUMA" {
		t.Errorf("fabric/label wrong: %+v", r0)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	out, err := RecordsJSON(cannedResult().Records())
	if err != nil {
		t.Fatal(err)
	}
	var back []Record
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("RecordsJSON emitted invalid JSON: %v", err)
	}
	want := cannedResult().Records()
	if len(back) != len(want) {
		t.Fatalf("round trip lost records: got %d, want %d", len(back), len(want))
	}
	for i := range back {
		if back[i] != want[i] {
			t.Errorf("record %d changed across JSON round trip:\ngot  %+v\nwant %+v", i, back[i], want[i])
		}
	}
}

func TestWriteCSVMatchesRecords(t *testing.T) {
	var buf bytes.Buffer
	r := cannedResult()
	if err := writeCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("got %d CSV lines, want 5:\n%s", len(lines), buf.String())
	}
	if lines[0] != csvHeader {
		t.Errorf("CSV header drifted: %q", lines[0])
	}
	for i, rec := range r.Records() {
		cols := strings.Split(lines[i+1], ",")
		if len(cols) != len(strings.Split(csvHeader, ",")) {
			t.Fatalf("row %d: %d columns, header has %d", i, len(cols), len(strings.Split(csvHeader, ",")))
		}
		if cols[0] != rec.Experiment || cols[1] != rec.App || cols[2] != rec.System {
			t.Errorf("row %d misaligned with records: %q", i, lines[i+1])
		}
	}
}
