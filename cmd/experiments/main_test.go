package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/serve"
)

// runCLI runs the command in-process on a fresh flag set and returns
// what it wrote to stdout.
func runCLI(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var stdout bytes.Buffer
	err := run(fs, args, &stdout)
	return stdout.Bytes(), err
}

// TestFlagSurface pins every flag's name and default value, so adding,
// removing or re-defaulting one is a deliberate test change.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := run(fs, []string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: got %v, want flag.ErrHelp", err)
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	want := []string{
		"apps=", "audit=true", "cpuprofile=", "csv=", "experiment=all", "fabric=",
		"json=", "list-systems=false", "memprofile=", fmt.Sprintf("parallel=%d", runtime.NumCPU()),
		"progress=false", "scale=1", "scales=", "seed=0", "systems=", "telemetry=",
		"timeline=false", "window=0",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags\n got %v\nwant %v", got, want)
	}
}

// TestParamsNameSimulatedThresholds: -experiment params prints the
// thresholds the experiments run, DefaultThresholds and SlowThresholds,
// beside the paper's, each on its own labelled row.
func TestParamsNameSimulatedThresholds(t *testing.T) {
	out, err := runCLI(t, "-experiment", "params")
	if err != nil {
		t.Fatal(err)
	}
	for label, th := range map[string]config.Thresholds{
		"paper, base systems":                config.PaperThresholds(),
		"simulated, base systems":            config.DefaultThresholds(),
		"simulated, slow systems (Figure 6)": config.SlowThresholds(),
	} {
		want := fmt.Sprintf("%-42s MigRep %d (reset %d), R-NUMA %d\n", label,
			th.MigRepThreshold, th.MigRepResetInterval, th.RNUMAThreshold)
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("params output lacks %q:\n%s", want, out)
		}
	}
	if !bytes.Contains(out, []byte("Every experiment runs the simulated thresholds")) {
		t.Errorf("params output does not say which thresholds run:\n%s", out)
	}
}

// TestInvalidQueryFailsBeforeRunning: a fabric override on the default
// "-experiment all", which includes the topology sweep, is refused with
// Query.Validate's error before any experiment runs or prints.
func TestInvalidQueryFailsBeforeRunning(t *testing.T) {
	out, err := runCLI(t, "-fabric", "ring", "-scale", "64", "-apps", "radix")
	want := harness.Query{Experiment: "all", Fabric: "ring", Scale: 64, Apps: []string{"radix"}}.Normalize().Validate()
	if want == nil {
		t.Fatal("Validate accepts a fabric override on all")
	}
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if len(out) != 0 {
		t.Fatalf("wrote %d bytes to stdout before failing:\n%s", len(out), out)
	}
}

// TestJSONMatchesServer: -json writes exactly the body dsmserve answers
// for the same query.
func TestJSONMatchesServer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	path := filepath.Join(t.TempDir(), "records.json")
	if _, err := runCLI(t, "-experiment", "fig5", "-apps", "radix", "-systems", "ccnuma", "-scale", "64", "-json", path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s := serve.New(serve.Config{Commit: "test"})
	defer s.Drain()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?experiment=fig5&apps=radix&systems=ccnuma&scale=64", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("server status %d: %s", rec.Code, rec.Body)
	}
	if !bytes.Equal(got, rec.Body.Bytes()) {
		t.Fatalf("-json differs from the server body\n-json:\n%s\nserver:\n%s", got, rec.Body)
	}
}
