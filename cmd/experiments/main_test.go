package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
)

// TestFlagSurface pins every flag's name and default value, so adding,
// removing or re-defaulting one is a deliberate test change.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := run(fs, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: got %v, want flag.ErrHelp", err)
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	want := []string{
		"apps=", "audit=true", "cpuprofile=", "csv=", "experiment=all", "fabric=",
		"json=", "list-systems=false", "memprofile=", fmt.Sprintf("parallel=%d", runtime.NumCPU()),
		"progress=false", "scale=1", "scales=", "seed=0", "systems=", "telemetry=",
		"timeline=false", "tracestore=", "verbose=false", "window=0",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags\n got %v\nwant %v", got, want)
	}
}
