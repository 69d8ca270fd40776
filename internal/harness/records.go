package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/stats"
)

// RecordSchema identifies the Record document format, so JSON emitted
// by the CLI and served by cmd/dsmserve is self-describing. Bump it on
// any field change; it participates in the serving layer's result
// cache key, so a schema change orphans memoized responses instead of
// replaying stale shapes.
const RecordSchema = "repro-record/v1"

// Record is one flattened (application, system, fabric) run of an
// experiment: the row every machine-readable renderer emits.
type Record struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	App        string `json:"app"`
	// System is the bare system name; Label is the run's presentation
	// label, which can carry the environment ("MigRep-Slow") or repeat
	// the fabric ("CC-NUMA@ring"). Group rows by (system, fabric) or
	// by label, whichever matches the analysis.
	System string `json:"system"`
	Label  string `json:"label"`
	Fabric string `json:"fabric"`

	Normalized float64 `json:"normalized"`
	ExecCycles int64   `json:"exec_cycles"`

	RemoteMisses     int64 `json:"remote_misses"`
	Cold             int64 `json:"cold"`
	Coherence        int64 `json:"coherence"`
	CapacityConflict int64 `json:"capacity_conflict"`

	Migrations   int64 `json:"migrations"`
	Replications int64 `json:"replications"`
	Collapses    int64 `json:"collapses"`
	Relocations  int64 `json:"relocations"`
	Replacements int64 `json:"replacements"`

	Upgrades     int64 `json:"upgrades"`
	PageFaults   int64 `json:"page_faults"`
	TrafficBytes int64 `json:"traffic_bytes"`

	// Interconnect view: the hottest link's byte count and the bytes
	// crossing the cluster bisection (zero when the fabric reported no
	// stats).
	MaxLinkBytes   int64 `json:"max_link_bytes"`
	BisectionBytes int64 `json:"bisection_bytes"`
}

// record flattens one run.
func (run *Run) record(experiment string) Record {
	s := run.Stats
	var upgrades, faults int64
	for i := range s.Nodes {
		upgrades += s.Nodes[i].Upgrades
		faults += s.Nodes[i].PageFaults
	}
	rec := Record{
		Schema:     RecordSchema,
		Experiment: experiment,
		App:        run.App,
		System:     run.System,
		Label:      run.Label,
		Fabric:     run.Fabric,

		Normalized: run.Norm,
		ExecCycles: s.ExecCycles,

		RemoteMisses:     s.TotalRemoteMisses(),
		Cold:             s.RemoteMissesByClass(stats.Cold),
		Coherence:        s.RemoteMissesByClass(stats.Coherence),
		CapacityConflict: s.RemoteMissesByClass(stats.CapacityConflict),

		Migrations:   s.PageOpsByKind(stats.Migration),
		Replications: s.PageOpsByKind(stats.Replication),
		Collapses:    s.PageOpsByKind(stats.Collapse),
		Relocations:  s.PageOpsByKind(stats.Relocation),
		Replacements: s.PageOpsByKind(stats.Replacement),

		Upgrades:     upgrades,
		PageFaults:   faults,
		TrafficBytes: s.TotalTrafficBytes(),
	}
	if s.Net != nil {
		rec.MaxLinkBytes = s.Net.MaxLink().Bytes
		rec.BisectionBytes = s.Net.BisectionBytes
	}
	return rec
}

// Records flattens the experiment into one record per run, in
// presentation order.
func (r *Result) Records() []Record {
	var out []Record
	for _, app := range r.AppOrder {
		for _, sys := range r.Systems {
			if run := r.Runs[app][sys]; run != nil {
				out = append(out, run.record(r.Name))
			}
		}
	}
	return out
}

// csvHeader matches the field order of WriteCSVRows.
const csvHeader = "experiment,app,system,label,fabric,normalized,exec_cycles," +
	"remote_misses,cold,coherence,capacity_conflict," +
	"migrations,replications,collapses,relocations,replacements," +
	"upgrades,page_faults,traffic_bytes,max_link_bytes,bisection_bytes"

// WriteCSVHeader emits the column header matching WriteCSVRows.
func WriteCSVHeader(w io.Writer) error {
	_, err := fmt.Fprintln(w, csvHeader)
	return err
}

// WriteCSVRows emits the experiment's records without a header, so
// several experiments can share one file.
func (r *Result) WriteCSVRows(w io.Writer) error {
	for _, rec := range r.Records() {
		_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			rec.Experiment, rec.App, rec.System, rec.Label, rec.Fabric,
			rec.Normalized, rec.ExecCycles,
			rec.RemoteMisses, rec.Cold, rec.Coherence, rec.CapacityConflict,
			rec.Migrations, rec.Replications, rec.Collapses, rec.Relocations, rec.Replacements,
			rec.Upgrades, rec.PageFaults, rec.TrafficBytes,
			rec.MaxLinkBytes, rec.BisectionBytes)
		if err != nil {
			return err
		}
	}
	return nil
}

// RecordsJSON renders records as the indented JSON array, with a
// trailing newline, that cmd/experiments -json writes and
// internal/serve answers, so both produce the same bytes.
func RecordsJSON(recs []Record) ([]byte, error) {
	buf, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
