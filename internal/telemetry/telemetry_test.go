package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func testCollector(window int64, timeline bool) *Collector {
	c := New(Config{Window: window, Timeline: timeline})
	c.Bind(4, []string{"l:0->1", "l:1->2", "l:2->3"})
	return c
}

func TestWindowIndexing(t *testing.T) {
	c := testCollector(100, false)
	c.PageOp(stats.Migration, 0)    // window 0
	c.PageOp(stats.Migration, 99)   // window 0
	c.PageOp(stats.Migration, 100)  // window 1
	c.PageOp(stats.Migration, 250)  // window 2
	c.PageOp(stats.Replication, -5) // negative clamps to window 0
	if got := c.PageOpWindow(stats.Migration, 0); got != 2 {
		t.Errorf("window 0 migrations = %d, want 2", got)
	}
	if got := c.PageOpWindow(stats.Migration, 1); got != 1 {
		t.Errorf("window 1 migrations = %d, want 1", got)
	}
	if got := c.PageOpWindow(stats.Migration, 2); got != 1 {
		t.Errorf("window 2 migrations = %d, want 1", got)
	}
	if got := c.PageOpWindow(stats.Migration, 3); got != 0 {
		t.Errorf("window 3 migrations = %d, want 0 (past end)", got)
	}
	if got := c.PageOpWindow(stats.Replication, 0); got != 1 {
		t.Errorf("negative time not clamped to window 0: %d", got)
	}
	if got := c.PageOpTotal(stats.Migration); got != 4 {
		t.Errorf("migration total = %d, want 4", got)
	}
	if got := c.Windows(); got != 3 {
		t.Errorf("windows = %d, want 3", got)
	}
}

func TestDefaultWindowApplied(t *testing.T) {
	c := New(Config{})
	if got := c.WindowCycles(); got != DefaultWindow {
		t.Errorf("window = %d, want default %d", got, DefaultWindow)
	}
}

func TestSeriesTotalsReconcile(t *testing.T) {
	c := testCollector(1000, false)
	var wantNode, wantLink int64
	for i := int64(0); i < 50; i++ {
		c.Traffic(int(i)%4, 64+i, i*137)
		c.Link(int(i)%3, 128+i, i*211)
		wantNode += 64 + i
		wantLink += 128 + i
	}
	var gotNode, gotLink int64
	for n := 0; n < 4; n++ {
		gotNode += c.NodeTotal(n)
	}
	for id := 0; id < c.Links(); id++ {
		gotLink += c.LinkTotal(id)
	}
	if gotNode != wantNode {
		t.Errorf("node totals = %d, want %d", gotNode, wantNode)
	}
	if gotLink != wantLink {
		t.Errorf("link totals = %d, want %d", gotLink, wantLink)
	}
}

// TestNilCollectorHooksAreNoOps pins the contract the simulation core
// relies on to call every hook unguarded: on a nil *Collector each
// hook does nothing and does not panic.
func TestNilCollectorHooksAreNoOps(t *testing.T) {
	hooks := []struct {
		name string
		call func(c *Collector)
	}{
		{"PageOp", func(c *Collector) { c.PageOp(stats.Migration, 100) }},
		{"Miss/remote", func(c *Collector) { c.Miss(stats.Coherence, true, 100) }},
		{"Miss/local", func(c *Collector) { c.Miss(stats.CapacityConflict, false, 100) }},
		{"Traffic", func(c *Collector) { c.Traffic(2, 64, 100) }},
		{"Link", func(c *Collector) { c.Link(1, 128, 100) }},
		{"Dispatch", func(c *Collector) { c.Dispatch(100) }},
		{"Event", func(c *Collector) { c.Event(EvMigrate, 42, 1, 3, 100, 900) }},
	}
	for _, h := range hooks {
		t.Run(h.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s on a nil collector panicked: %v", h.name, r)
				}
			}()
			var c *Collector
			h.call(c)
		})
	}
}

func TestMissSeriesSeparateRemoteLocal(t *testing.T) {
	c := testCollector(10, false)
	c.Miss(stats.Cold, true, 5)
	c.Miss(stats.Cold, false, 5)
	c.Miss(stats.Cold, false, 15)
	if got := c.MissTotal(stats.Cold, true); got != 1 {
		t.Errorf("remote cold total = %d, want 1", got)
	}
	if got := c.MissTotal(stats.Cold, false); got != 2 {
		t.Errorf("local cold total = %d, want 2", got)
	}
	if got := c.local[stats.Cold].at(1); got != 1 {
		t.Errorf("local cold window 1 = %d, want 1", got)
	}
}

func TestHotLinksOrdering(t *testing.T) {
	c := testCollector(100, false)
	c.Link(1, 500, 0)
	c.Link(0, 200, 0)
	c.Link(2, 200, 0) // ties with link 0: lower id first
	got := c.HotLinks(3)
	want := []int{1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hot links = %v, want %v", got, want)
		}
	}
	if got := c.HotLinks(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("hot links capped = %v, want [1]", got)
	}
	if name := c.LinkName(1); name != "l:1->2" {
		t.Errorf("link name = %q", name)
	}
}

func TestEventsRequireTimeline(t *testing.T) {
	off := testCollector(100, false)
	off.Event(EvMigrate, 1, 0, 1, 10, 20)
	if got := len(off.Events()); got != 0 {
		t.Errorf("events recorded with timeline off: %d", got)
	}
	on := testCollector(100, true)
	on.Event(EvMigrate, 1, 0, 1, 10, 20)
	evs := on.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	e := evs[0]
	if e.Kind != EvMigrate || e.Page != 1 || e.Home != 0 || e.Requester != 1 || e.Start != 10 || e.End != 20 {
		t.Errorf("event mis-recorded: %+v", e)
	}
}

func TestEventKindNames(t *testing.T) {
	want := map[EventKind]string{
		EvRelocate:   "relocate",
		EvReplicate:  "replicate",
		EvGrant:      "grant",
		EvCollapse:   "collapse",
		EvMigrate:    "migrate",
		EvFrameFlush: "frame-flush",
		EvFaultCopy:  "fault-copy",
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", k, got, name)
		}
	}
	if int(numEventKinds) != len(want) {
		t.Errorf("numEventKinds = %d, want %d (update the name map)", numEventKinds, len(want))
	}
	// Only the page-busy operations serialize.
	for k := EventKind(0); k < numEventKinds; k++ {
		want := k == EvReplicate || k == EvGrant || k == EvCollapse || k == EvMigrate
		if got := k.Serializing(); got != want {
			t.Errorf("%s.Serializing() = %v, want %v", k, got, want)
		}
	}
}

func TestWriteWindowsCSV(t *testing.T) {
	c := testCollector(100, false)
	c.PageOp(stats.Migration, 150)
	c.Traffic(2, 4096, 150)
	c.Link(0, 64, 50)
	c.Dispatch(250)
	var sb strings.Builder
	if err := c.WriteWindowsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if lines[0] != "window,start_cycle,end_cycle,series,key,value" {
		t.Fatalf("header = %q", lines[0])
	}
	want := map[string]bool{
		"0,0,100,link_bytes,l:0->1,64":    false,
		"1,100,200,pageop,migration,1":    false,
		"1,100,200,node_bytes,node2,4096": false,
		"2,200,300,dispatch,ops,1":        false,
	}
	for _, l := range lines[1:] {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected row %q (zero rows must be omitted)", l)
		}
		want[l] = true
	}
	for l, seen := range want {
		if !seen {
			t.Errorf("missing row %q", l)
		}
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	c := testCollector(100, true)
	c.Event(EvMigrate, 7, 2, 1, 1000, 1500)
	c.Event(EvReplicate, 8, 2, 3, 2000, 2600)
	c.Event(EvRelocate, 9, 0, 3, 2500, 2700)
	var sb strings.Builder
	if err := c.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int64  `json:"pid"`
			Tid  int64  `json:"tid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, sb.String())
	}
	var slices, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.Dur < 0 {
				t.Errorf("negative duration on %q", e.Name)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if slices != 3 {
		t.Errorf("slices = %d, want 3", slices)
	}
	// Homes 2 and 0 each get one process_name metadata record.
	if meta != 2 {
		t.Errorf("metadata records = %d, want 2", meta)
	}
	found := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "migrate" {
			found = true
			if e.Ts != 1000 || e.Dur != 500 || e.Pid != 2 || e.Tid != 1 {
				t.Errorf("migrate slice = %+v", e)
			}
			if page, ok := e.Args["page"].(float64); !ok || page != 7 {
				t.Errorf("migrate args = %v", e.Args)
			}
		}
	}
	if !found {
		t.Error("no migrate slice in trace")
	}
}

func TestWriteTimelineCSV(t *testing.T) {
	c := testCollector(100, true)
	c.Event(EvGrant, 3, 1, 2, 10, 40)
	var sb strings.Builder
	if err := c.WriteTimelineCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "kind,page,home,requester,start_cycle,end_cycle\ngrant,3,1,2,10,40\n"
	if sb.String() != want {
		t.Errorf("timeline csv = %q, want %q", sb.String(), want)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	created := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	man := NewManifestAt(created)
	if man.Schema != ManifestSchema {
		t.Errorf("schema = %q", man.Schema)
	}
	if man.Created != "2026-08-08T12:00:00Z" {
		t.Errorf("created = %q, want fixed RFC 3339 stamp", man.Created)
	}
	if man.GoVersion == "" || man.GOOS == "" || man.GOARCH == "" || man.GOMAXPROCS < 1 {
		t.Errorf("build metadata unpopulated: %+v", man)
	}
	man.Experiment = "fig5"
	man.Systems = []string{"CC-NUMA", "MigRep"}
	man.Scale = 8
	ref := TraceRef{App: "lu", CPUs: 32, Scale: 8, Seed: 3}
	man.Traces = []TraceRef{ref}
	man.WallSeconds = 1.5
	var sb strings.Builder
	if err := man.Write(&sb); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Experiment != "fig5" || back.Scale != 8 || len(back.Traces) != 1 || back.Traces[0] != ref {
		t.Errorf("round trip lost fields: %+v", back)
	}
}
