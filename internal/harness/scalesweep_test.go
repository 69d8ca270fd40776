package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestScaleSweepRunsAuditClean runs the sweep over two scales on two
// apps with full auditing and checks the structure: one labeled run
// per (app, system, scale), traffic recorded, and both renderers
// consistent with the records.
func TestScaleSweepRunsAuditClean(t *testing.T) {
	var buf bytes.Buffer
	r, err := RunByName("scalesweep", Options{
		Scales:   []int{32, 64},
		Apps:     []string{"radix", "lu"},
		Parallel: 4,
		Audit:    true,
		Traces:   NewTraceCache(),
		Out:      &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	const systems = 6 // the Figure 5 base set
	if got, want := len(r.Systems), 2*systems; got != want {
		t.Errorf("systems = %d, want %d (6 systems x 2 scales)", got, want)
	}
	recs := r.Records()
	if got, want := len(recs), 2*2*systems; got != want {
		t.Errorf("records = %d, want %d", got, want)
	}
	for _, rec := range recs {
		if !strings.Contains(rec.Label, "@s32") && !strings.Contains(rec.Label, "@s64") {
			t.Errorf("record label %q lacks a scale suffix", rec.Label)
		}
		if strings.Contains(rec.System, "@") {
			t.Errorf("record system %q should be the bare name", rec.System)
		}
		if rec.Normalized <= 0 {
			t.Errorf("%s/%s: normalized = %v, want > 0", rec.App, rec.Label, rec.Normalized)
		}
		if rec.TrafficBytes <= 0 {
			t.Errorf("%s/%s: traffic = %v, want > 0", rec.App, rec.Label, rec.TrafficBytes)
		}
	}
	out := buf.String()
	for _, want := range []string{
		"Scale sweep", "-- scale 32", "-- scale 64",
		"total remote traffic (KB)", "CC-NUMA@s32", "R-NUMA@s64",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}

// TestScaleSweepLargerWorkingSetMovesMoreBytes pins the sweep's reason
// to exist: for every system, the larger working set (smaller scale
// divisor) moves at least as many bytes as the smaller one.
func TestScaleSweepLargerWorkingSetMovesMoreBytes(t *testing.T) {
	var buf bytes.Buffer
	r, err := RunByName("scalesweep", Options{
		Scales:   []int{16, 64},
		Apps:     []string{"radix"},
		Parallel: 4,
		Audit:    true,
		Traces:   NewTraceCache(),
		Out:      &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"CC-NUMA", "MigRep", "R-NUMA"} {
		big := r.Runs["radix"][sys+"@s16"]
		small := r.Runs["radix"][sys+"@s64"]
		if big == nil || small == nil {
			t.Fatalf("%s: missing sweep runs", sys)
		}
		if big.Stats.TotalTrafficBytes() < small.Stats.TotalTrafficBytes() {
			t.Errorf("%s: scale 16 traffic %d < scale 64 traffic %d",
				sys, big.Stats.TotalTrafficBytes(), small.Stats.TotalTrafficBytes())
		}
	}
}

// TestScaleSweepSystemOverride: a registry override replaces the
// Figure 5 set at every scale.
func TestScaleSweepSystemOverride(t *testing.T) {
	var buf bytes.Buffer
	r, err := RunByName("scalesweep", Options{
		Scales:  []int{64},
		Apps:    []string{"radix"},
		Systems: []string{"ccnuma", "migrep-contend"},
		Audit:   true,
		Out:     &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Systems) != 2 {
		t.Fatalf("systems = %v, want 2 labels", r.Systems)
	}
	if r.Runs["radix"]["MigRep-Cont@s64"] == nil {
		t.Errorf("override system missing from runs: %v", r.Systems)
	}
}

// TestScaleSweepRejectsBadScale: zero or negative scales fail fast.
func TestScaleSweepRejectsBadScale(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunByName("scalesweep", Options{Scales: []int{0}, Out: &buf}); err == nil {
		t.Error("scale 0 accepted")
	}
}
