package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the stdout golden files")

// dsmsim runs the command in-process on a fresh flag set and returns
// what it printed to stdout.
func dsmsim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	fs := flag.NewFlagSet("dsmsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var out bytes.Buffer
	err := run(fs, args, &out)
	return out.String(), err
}

// TestStdoutGolden locks dsmsim's printed output byte-for-byte: the
// registry listing and one three-system lu comparison under each
// timing variant. Regenerate deliberately with
// `go test ./cmd/dsmsim -run TestStdoutGolden -update`.
func TestStdoutGolden(t *testing.T) {
	lu := []string{"-app", "lu", "-systems", "ccnuma,migrep,rnuma", "-scale", "4", "-normalize"}
	cases := []struct {
		name string
		args []string
	}{
		{"list", []string{"-list"}},
		{"lu", lu},
		{"lu-slow", append(lu, "-slow")},
		{"lu-netscale8", append(lu, "-netscale", "8")},
		{"lu-pernode", append(lu, "-pernode")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := dsmsim(t, c.args...)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("stdout drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestTelemetryArtifacts pins the artifact files a telemetry run writes
// and the bytes of each per-run artifact. The manifest carries a
// timestamp and build metadata, so only its identity fields are
// checked.
func TestTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	if _, err := dsmsim(t, "-app", "migratory", "-system", "migrep", "-scale", "8",
		"-telemetry", dir, "-timeline"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"dsmsim.manifest.json":                  "",
		"dsmsim_migratory_MigRep.timeline.csv":  "87591fb6359e55b1",
		"dsmsim_migratory_MigRep.timeline.json": "e58ed654653bc240",
		"dsmsim_migratory_MigRep.windows.csv":   "a36f7814f3a72c4e",
	}
	got := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		got[e.Name()] = ""
		if want[e.Name()] != "" {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[e.Name()] = hex.EncodeToString(sum[:8])
		}
	}
	if !maps.Equal(got, want) {
		t.Errorf("telemetry artifacts (name: sha256 prefix)\n got %v\nwant %v", got, want)
	}
	man := readManifest(t, filepath.Join(dir, "dsmsim.manifest.json"))
	if man.Experiment != "dsmsim" || man.App != "migratory" || !slices.Equal(man.Systems, []string{"MigRep"}) ||
		man.Scale != 8 || len(man.Traces) != 1 || !man.Timeline {
		t.Errorf("manifest identity: %+v", man)
	}
}

func readManifest(t *testing.T, path string) telemetry.Manifest {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man telemetry.Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// TestHalfCacheTelemetry runs the half-page-cache systems, whose names
// contain '/', with telemetry on: their artifact names must be
// flattened to filesystem-safe stems.
func TestHalfCacheTelemetry(t *testing.T) {
	dir := t.TempDir()
	if _, err := dsmsim(t, "-app", "migratory", "-systems", "rnuma-half,rnuma-half-migrep", "-scale", "8",
		"-telemetry", dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"dsmsim_migratory_R-NUMA-1-2.windows.csv",
		"dsmsim_migratory_R-NUMA-1-2-MigRep.windows.csv",
		"dsmsim.manifest.json",
	} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", name, err)
		}
	}
}

// TestScaleBelowOneSharesStore runs -scale 0 and then -scale 1 against
// one trace store: both are the full-size workload, so the second run
// loads the first run's trace instead of storing a second copy.
func TestScaleBelowOneSharesStore(t *testing.T) {
	ts, tel := t.TempDir(), t.TempDir()
	if _, err := dsmsim(t, "-app", "migratory", "-scale", "0", "-tracestore", ts, "-telemetry", tel); err != nil {
		t.Fatal(err)
	}
	out, err := dsmsim(t, "-app", "migratory", "-scale", "1", "-tracestore", ts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(loaded from "+ts+")") {
		t.Errorf("second run did not load the stored trace:\n%s", out)
	}
	traces, err := filepath.Glob(filepath.Join(ts, "*.trace"))
	if err != nil || len(traces) != 1 {
		t.Errorf("store holds %v (err %v), want one .trace file", traces, err)
	}
	if man := readManifest(t, filepath.Join(tel, "dsmsim.manifest.json")); man.Scale != 1 {
		t.Errorf("manifest scale %d, want 1", man.Scale)
	}
}

// TestRejectsBadInput checks that values no run could honour fail with
// an error naming the problem instead of running something else.
func TestRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-app", "migratory", "-scale", "8", "-systems", "ccnuma,CCNUMA"}, `system "CCNUMA" listed twice`},
		{[]string{"-app", "migratory", "-scale", "8", "-netscale", "0"}, "-netscale 0"},
	} {
		out, err := dsmsim(t, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got error %v, want one containing %q", c.args, err, c.want)
		}
		if out != "" {
			t.Errorf("%v: printed %q before failing", c.args, out)
		}
	}
}

// TestFlagSurface pins every flag's name and default value, so adding,
// removing or re-defaulting one is a deliberate test change.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("dsmsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := run(fs, []string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: got %v, want flag.ErrHelp", err)
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	want := []string{
		"app=lu", "audit=true", "list=false", "netscale=1", "normalize=false",
		"pernode=false", "progress=false", "scale=1", "slow=false", "system=ccnuma",
		"systems=", "telemetry=", "timeline=false", "tracestore=", "window=0",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags\n got %v\nwant %v", got, want)
	}
}
