package repro

import (
	"io"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// TestTelemetryOverheadBudget pins the observability cost ceiling: the
// Figure 5 sweep with time-resolved telemetry fully on (windowed series
// plus the event timeline) must run within 10% of the telemetry-off
// wall time. The variants alternate over a shared trace cache, so each
// (off, on) pair runs back to back under the same host load, and the
// test fails only when every pair breaks the budget: other test
// binaries sharing the cores can slow any one sweep, but a telemetry
// path that really costs more slows all of them. A small absolute
// allowance keeps the threshold meaningful if the sweep ever gets very
// fast.
func TestTelemetryOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-time budget in -short mode")
	}
	if raceEnabled {
		t.Skip("skipping wall-time budget under the race detector")
	}

	traces := harness.NewTraceCache()
	sweep := func(tel *telemetry.Config) time.Duration {
		start := time.Now()
		if _, err := harness.RunByName("fig5", harness.Options{
			Scale: 8, Parallel: 4, Traces: traces, Out: io.Discard, Telemetry: tel,
		}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	sweep(nil) // warm the trace cache outside the measured iterations

	const pairs = 4
	timeline := &telemetry.Config{Timeline: true}
	within := false
	for i := 0; i < pairs; i++ {
		off := sweep(nil)
		on := sweep(timeline)
		limit := off + off/10 + 50*time.Millisecond
		t.Logf("pair %d: telemetry off %v, on %v, ratio %.3f (limit %v)",
			i, off, on, float64(on)/float64(off), limit)
		if on <= limit {
			within = true
		}
	}
	if !within {
		t.Errorf("every telemetry-on sweep exceeded its pair's budget (off + 10%% + 50ms): collection left the nil-check fast path")
	}
}
