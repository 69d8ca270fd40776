package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// ManifestSchema identifies the manifest document format.
const ManifestSchema = "repro-run-manifest/v1"

// TraceRef identifies one generated workload by its content address in
// the on-disk trace store: the hash is the store filename, a SHA-256 of
// (format version, app, cpus, scale, seed), so two manifests with equal
// hashes replayed byte-identical inputs.
type TraceRef struct {
	App   string `json:"app"`
	CPUs  int    `json:"cpus"`
	Scale int    `json:"scale"`
	Seed  uint64 `json:"seed"`
	Hash  string `json:"hash"`
}

// Manifest records everything needed to reproduce (and attribute) a
// run: what was simulated, on which inputs, by which build, and how
// long it took. It is written next to every telemetry report so results
// are reproducible artifacts rather than bare numbers.
type Manifest struct {
	Schema  string `json:"schema"`
	Created string `json:"created"` // wall-clock, RFC 3339 UTC

	// What ran: an experiment name and/or a single (app, system) pair,
	// with the memory-system specs and fabric involved.
	Experiment string   `json:"experiment,omitempty"`
	App        string   `json:"app,omitempty"`
	Systems    []string `json:"systems,omitempty"`
	Fabric     string   `json:"fabric,omitempty"`

	// Input identity: problem scale, generator seed, and the content
	// hashes of every trace the run replayed.
	Scale  int        `json:"scale,omitempty"`
	Scales []int      `json:"scales,omitempty"`
	Seed   uint64     `json:"seed"`
	Traces []TraceRef `json:"traces,omitempty"`

	// Telemetry parameters, when telemetry was collected.
	WindowCycles int64 `json:"window_cycles,omitempty"`
	Timeline     bool  `json:"timeline,omitempty"`

	// Execution cost and build identity.
	WallSeconds float64 `json:"wall_seconds"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Commit      string  `json:"commit,omitempty"`
}

// NewManifestAt returns a manifest stamped with the given creation
// time and this build's metadata; the caller fills in the run identity
// and wall time. Wall-clock time is presentation-layer input, so the
// harness or command layer observes it and passes it down — this
// package (part of the deterministic core) never reads the clock
// itself (see the walltime analyzer in internal/lint).
func NewManifestAt(created time.Time) Manifest {
	return Manifest{
		Schema:     ManifestSchema,
		Created:    created.UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     BuildCommit(),
	}
}

// Write renders the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteFile writes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// BuildCommit returns the VCS revision of the running binary: the
// vcs.revision stamped by `go build` when available (with a "-dirty"
// suffix for modified trees), else a best-effort `git rev-parse HEAD`
// (go run and test binaries are not VCS-stamped), else empty.
func BuildCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
