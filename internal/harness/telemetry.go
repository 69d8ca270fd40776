package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// artifactName flattens an experiment/app/label tuple into a filename
// stem: anything outside [A-Za-z0-9._-] becomes '-', so labels like
// "CC-NUMA@ring" and "migrep@s8" stay readable and filesystem-safe.
func artifactName(parts ...string) string {
	mapped := make([]string, len(parts))
	for i, p := range parts {
		mapped[i] = strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '.', r == '_', r == '-':
				return r
			default:
				return '-'
			}
		}, p)
	}
	return strings.Join(mapped, "_")
}

// WriteTelemetry writes the result's telemetry artifacts into dir
// (created if missing): per run a windowed-series CSV
// (<experiment>_<app>_<label>.windows.csv) and, when timelines were
// recorded, a Chrome trace-event JSON (.timeline.json, loadable in
// Perfetto or chrome://tracing) and a compact CSV (.timeline.csv);
// plus one run manifest (<experiment>.manifest.json) identifying the
// experiment, systems, fabrics, scale, seed, replayed trace hashes,
// build, and the given wall time. Runs without a collector (telemetry
// was off) are skipped.
func (r *Result) WriteTelemetry(dir string, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var window int64
	timeline := false
	for _, app := range r.AppOrder {
		for _, sys := range r.Systems {
			run := r.Runs[app][sys]
			if run == nil || run.Telemetry == nil {
				continue
			}
			col := run.Telemetry
			window = col.WindowCycles()
			stem := artifactName(r.Name, app, run.Label)
			if err := writeArtifact(filepath.Join(dir, stem+".windows.csv"), col.WriteWindowsCSV); err != nil {
				return err
			}
			if col.TimelineEnabled() {
				timeline = true
				if err := writeArtifact(filepath.Join(dir, stem+".timeline.json"), col.WriteChromeTrace); err != nil {
					return err
				}
				if err := writeArtifact(filepath.Join(dir, stem+".timeline.csv"), col.WriteTimelineCSV); err != nil {
					return err
				}
			}
		}
	}
	man := r.Manifest(wall)
	man.WindowCycles = window
	man.Timeline = timeline
	return man.WriteFile(filepath.Join(dir, artifactName(r.Name)+".manifest.json"))
}

// Manifest builds the run manifest describing this result: experiment
// and system identity, fabrics, scale(s), seed, and the content hashes
// of every replayed trace, stamped with the current build metadata and
// the given wall time.
func (r *Result) Manifest(wall time.Duration) telemetry.Manifest {
	man := telemetry.NewManifestAt(time.Now())
	man.Experiment = r.Name
	man.Systems = append([]string(nil), r.Systems...)
	man.Fabric = r.fabrics()
	man.Scale = r.Scale
	man.Scales = append([]int(nil), r.Scales...)
	man.Traces = append([]telemetry.TraceRef(nil), r.Traces...)
	if len(r.Traces) > 0 {
		man.Seed = r.Traces[0].Seed
	}
	if len(r.AppOrder) == 1 {
		man.App = r.AppOrder[0]
	}
	man.WallSeconds = wall.Seconds()
	return man
}

// fabrics joins the distinct fabrics the result's runs used, in first-
// appearance order.
func (r *Result) fabrics() string {
	var out []string
	for _, app := range r.AppOrder {
		for _, sys := range r.Systems {
			if run := r.Runs[app][sys]; run != nil && !slices.Contains(out, run.Fabric) {
				out = append(out, run.Fabric)
			}
		}
	}
	return strings.Join(out, ",")
}

// writeArtifact creates path and streams one renderer into it.
func writeArtifact(path string, render func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
