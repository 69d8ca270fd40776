package harness

import (
	"flag"
	"io"
	"os"

	"repro/internal/telemetry"
	"repro/internal/trace/store"
)

// Flags are the command-line flags cmd/experiments and cmd/dsmsim
// share; each CLI declares its own -systems, whose meaning differs.
// TraceStore and Telemetry hold the -tracestore and -telemetry
// directories ("" = off).
type Flags struct {
	TraceStore, Telemetry string

	scale           int
	audit, progress bool
	tel             telemetry.Config
}

// NewFlags declares the shared flags on fs.
func NewFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.scale, "scale", 1, "problem-size divisor (1 = full size)")
	fs.BoolVar(&f.audit, "audit", true, "run every simulation with event-time and traffic-conservation audits (internal/audit)")
	fs.StringVar(&f.TraceStore, "tracestore", "", "directory of the on-disk trace store (empty = off; generation timings stay cold)")
	fs.StringVar(&f.Telemetry, "telemetry", "", "collect time-resolved telemetry and write windowed-series CSVs and a run manifest into this directory")
	fs.BoolVar(&f.tel.Timeline, "timeline", false, "with -telemetry, also record per-run page-operation timelines (Chrome trace JSON + CSV)")
	fs.Int64Var(&f.tel.Window, "window", 0, "telemetry window width in simulated cycles (0 = default, 2^20)")
	fs.BoolVar(&f.progress, "progress", false, "log per-run completion with wall time to stderr")
	return f
}

// Options turns the parsed flags into run options that render to out:
// a trace cache over the -tracestore store (memory only when it is
// off), telemetry collection when -telemetry is set, progress lines on
// stderr, and Scale clamped to at least 1.
func (f *Flags) Options(out io.Writer) (Options, error) {
	var st *store.Store
	if f.TraceStore != "" {
		var err error
		if st, err = store.Open(f.TraceStore); err != nil {
			return Options{}, err
		}
	}
	o := Options{Scale: max(f.scale, 1), Audit: f.audit, Traces: NewTraceCacheWithStore(st), Out: out}
	if f.Telemetry != "" {
		o.Telemetry = &f.tel
	}
	if f.progress {
		o.Progress = os.Stderr
	}
	return o, nil
}
