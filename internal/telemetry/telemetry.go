// Package telemetry is the simulator's opt-in time-resolved
// observability layer. Where internal/stats accumulates end-of-run
// aggregates, a telemetry.Collector resolves the same quantities over
// simulated time:
//
//   - Windowed series: the simulated timeline is cut into fixed-width
//     windows (Config.Window cycles) and every page operation, miss,
//     per-node traffic byte and per-link fabric byte is charged to the
//     window of its simulated event time. The series expose migration
//     bursts, replication storms and hot links forming and dissolving —
//     dynamics invisible in the end-of-run totals.
//   - An event timeline (Config.Timeline): every discrete page
//     operation (relocation, replication, replica grant, collapse,
//     migration, frame flush, fault-path replica copy) is recorded with
//     its start and end simulated times, page, home and requester, and
//     exports as Chrome trace-event JSON loadable in Perfetto or
//     chrome://tracing, plus a compact CSV.
//   - Run manifests (Manifest): the spec/fabric/scale/seed and trace
//     content hashes that make a report reproducible, written next to
//     the report artifacts.
//
// Collection is strictly observational: an instrumented run produces
// byte-identical simulation statistics. A nil *Collector is a valid
// observer whose hooks do nothing, so a machine without telemetry
// calls every hook unguarded and, since each hook inlines, pays one
// branch per hook. A Collector is not goroutine-safe; attach one
// collector per machine (the harness builds one per run).
//
// Totals reconcile exactly with the aggregate counters by
// construction: every windowed increment mirrors one aggregate
// increment, so for example the sum over a link's windows equals the
// link's end-of-run byte counter in stats.NetStats (pinned by the
// conservation tests).
package telemetry

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// DefaultWindow is the window width, in simulated cycles, used when
// Config.Window is unset: 2^20 cycles, a handful of milliseconds of the
// paper's 600 MHz processor and a few dozen windows on a typical
// scaled-down run.
const DefaultWindow int64 = 1 << 20

// Config selects what a Collector records.
type Config struct {
	// Window is the width of one time window in simulated cycles
	// (<= 0 selects DefaultWindow).
	Window int64

	// Timeline additionally records the discrete page-operation event
	// timeline (see Event). Off by default: long runs with heavy page
	// activity can accumulate many events.
	Timeline bool
}

// series is one windowed int64 counter: vals[w] accumulates everything
// charged to window w. Windows materialize on first touch, so a series
// costs nothing until its first event and growth is amortized.
type series struct {
	vals []int64
}

// bump adds delta to window w, growing the series as needed.
func (s *series) bump(w int, delta int64) {
	if w >= len(s.vals) {
		if w >= cap(s.vals) {
			grown := make([]int64, w+1, 2*w+2)
			copy(grown, s.vals)
			s.vals = grown
		} else {
			s.vals = s.vals[:w+1]
		}
	}
	s.vals[w] += delta
}

// total sums the series over all windows.
func (s *series) total() int64 {
	var t int64
	for _, v := range s.vals {
		t += v
	}
	return t
}

// Collector records time-resolved telemetry for one simulated machine.
// The zero value is not usable; build one with New and pass it to the
// run via dsm.RunOptions.Telemetry (or harness.Options.Telemetry).
//
// A nil *Collector is the off switch: its hooks (PageOp, Miss, Traffic,
// Link, Dispatch and Event) do nothing, so the simulation core calls
// them unguarded. Each hook stays within the compiler's inlining
// budget (CI checks it), so with telemetry off a hook costs one branch
// at its call site.
type Collector struct {
	window   int64
	timeline bool

	nodes     int
	linkNames []string

	pageOps  [stats.NumPageOps]series
	remote   [stats.NumMissClasses]series
	local    [stats.NumMissClasses]series
	node     []series // per-node traffic bytes
	link     []series // per-link fabric bytes
	dispatch series   // dispatched trace ops

	events []Event
}

// New builds a collector with the given configuration.
func New(cfg Config) *Collector {
	w := cfg.Window
	if w <= 0 {
		w = DefaultWindow
	}
	return &Collector{window: w, timeline: cfg.Timeline}
}

// Bind sizes the collector for a machine: the node count and the
// fabric's link names (in link-id order). The machine calls it once at
// attach time, before any event is recorded.
func (c *Collector) Bind(nodes int, linkNames []string) {
	c.nodes = nodes
	c.linkNames = linkNames
	c.node = make([]series, nodes)
	c.link = make([]series, len(linkNames))
}

// WindowCycles returns the width of one window in simulated cycles.
func (c *Collector) WindowCycles() int64 { return c.window }

// TimelineEnabled reports whether the collector records the event
// timeline.
func (c *Collector) TimelineEnabled() bool { return c.timeline }

// win maps a simulated time to its window index. Negative times (never
// produced by a well-formed run) clamp to window 0 rather than
// corrupting the series.
func (c *Collector) win(t int64) int {
	if t <= 0 {
		return 0
	}
	return int(t / c.window)
}

// PageOp charges one page operation of the given kind to the window of
// time t.
func (c *Collector) PageOp(kind stats.PageOp, t int64) {
	if c == nil {
		return
	}
	c.pageOps[kind].bump(c.win(t), 1)
}

// Miss charges one miss of the given class — remote or local — to the
// window of time t. The body lives in miss so that Miss itself inlines.
func (c *Collector) Miss(cls stats.MissClass, remote bool, t int64) {
	if c != nil {
		c.miss(cls, remote, t)
	}
}

// miss is Miss's out-of-line body.
func (c *Collector) miss(cls stats.MissClass, remote bool, t int64) {
	if remote {
		c.remote[cls].bump(c.win(t), 1)
	} else {
		c.local[cls].bump(c.win(t), 1)
	}
}

// Traffic charges bytes put on the network by node n to the window of
// time t. It mirrors every increment of stats.Node.TrafficBytes.
func (c *Collector) Traffic(n int, bytes, t int64) {
	if c == nil {
		return
	}
	c.node[n].bump(c.win(t), bytes)
}

// Link charges bytes crossing fabric link id to the window of time t.
// It mirrors every increment of the fabric's per-link byte counters.
func (c *Collector) Link(id int, bytes, t int64) {
	if c == nil {
		return
	}
	c.link[id].bump(c.win(t), bytes)
}

// Dispatch charges one dispatched trace operation to the window of
// time t.
func (c *Collector) Dispatch(t int64) {
	if c == nil {
		return
	}
	c.dispatch.bump(c.win(t), 1)
}

// Event records one discrete page operation on the timeline (a no-op
// unless Config.Timeline was set).
func (c *Collector) Event(kind EventKind, page uint64, home, requester int, start, end int64) {
	if c == nil || !c.timeline {
		return
	}
	c.events = append(c.events, Event{
		Kind: kind, Page: page,
		Home: int32(home), Requester: int32(requester),
		Start: start, End: end,
	})
}

// Events returns the recorded timeline, in recording order (which is
// execution order, not simulated-time order).
func (c *Collector) Events() []Event { return c.events }

// Windows returns the number of materialized windows: the highest
// window index touched by any series, plus one.
func (c *Collector) Windows() int {
	n := len(c.dispatch.vals)
	max := func(s *series) {
		if len(s.vals) > n {
			n = len(s.vals)
		}
	}
	for i := range c.pageOps {
		max(&c.pageOps[i])
	}
	for i := range c.remote {
		max(&c.remote[i])
	}
	for i := range c.local {
		max(&c.local[i])
	}
	for i := range c.node {
		max(&c.node[i])
	}
	for i := range c.link {
		max(&c.link[i])
	}
	return n
}

// at returns a series' value in window w (zero past its end).
func (s *series) at(w int) int64 {
	if w >= len(s.vals) {
		return 0
	}
	return s.vals[w]
}

// PageOpWindow returns the count of page operations of one kind in
// window w.
func (c *Collector) PageOpWindow(kind stats.PageOp, w int) int64 { return c.pageOps[kind].at(w) }

// LinkBytesWindow returns link id's bytes in window w.
func (c *Collector) LinkBytesWindow(id, w int) int64 { return c.link[id].at(w) }

// Links returns the number of fabric links the collector tracks.
func (c *Collector) Links() int { return len(c.link) }

// LinkName returns the name of fabric link id.
func (c *Collector) LinkName(id int) string { return c.linkNames[id] }

// LinkTotal returns the sum of link id's windowed bytes — by
// construction equal to the fabric's end-of-run counter for that link.
func (c *Collector) LinkTotal(id int) int64 { return c.link[id].total() }

// NodeTotal returns the sum of node n's windowed traffic bytes — by
// construction equal to stats.Node.TrafficBytes for that node.
func (c *Collector) NodeTotal(n int) int64 { return c.node[n].total() }

// PageOpTotal returns the sum of one kind's windowed page-op counts.
func (c *Collector) PageOpTotal(kind stats.PageOp) int64 { return c.pageOps[kind].total() }

// MissTotal returns the sum of one class's windowed miss counts.
func (c *Collector) MissTotal(cls stats.MissClass, remote bool) int64 {
	if remote {
		return c.remote[cls].total()
	}
	return c.local[cls].total()
}

// DispatchTotal returns the total dispatched trace ops.
func (c *Collector) DispatchTotal() int64 { return c.dispatch.total() }

// HotLinks returns the ids of the n links with the highest total bytes,
// hottest first (ties broken by link id for determinism).
func (c *Collector) HotLinks(n int) []int {
	ids := make([]int, len(c.link))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ta, tb := c.link[ids[a]].total(), c.link[ids[b]].total()
		if ta != tb {
			return ta > tb
		}
		return ids[a] < ids[b]
	})
	if n < len(ids) {
		ids = ids[:n]
	}
	return ids
}

// windowsCSVHeader is the column layout of WriteWindowsCSV.
const windowsCSVHeader = "window,start_cycle,end_cycle,series,key,value"

// WriteWindowsCSV renders every windowed series as long-form CSV: one
// row per (window, series, key) with a non-zero value. series is one of
// pageop, miss_remote, miss_local, node_bytes, link_bytes, dispatch;
// key names the page-op kind, miss class, node or link. Totals over the
// window column reproduce the end-of-run aggregates exactly.
func (c *Collector) WriteWindowsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, windowsCSVHeader); err != nil {
		return err
	}
	var err error
	row := func(win int, ser, key string, v int64) {
		if err != nil || v == 0 {
			return
		}
		start := int64(win) * c.window
		_, err = fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d\n", win, start, start+c.window, ser, key, v)
	}
	n := c.Windows()
	for win := 0; win < n; win++ {
		for k := 0; k < stats.NumPageOps; k++ {
			row(win, "pageop", stats.PageOp(k).String(), c.pageOps[k].at(win))
		}
		for cl := 0; cl < stats.NumMissClasses; cl++ {
			row(win, "miss_remote", stats.MissClass(cl).String(), c.remote[cl].at(win))
			row(win, "miss_local", stats.MissClass(cl).String(), c.local[cl].at(win))
		}
		for nd := range c.node {
			row(win, "node_bytes", fmt.Sprintf("node%d", nd), c.node[nd].at(win))
		}
		for l := range c.link {
			row(win, "link_bytes", c.linkNames[l], c.link[l].at(win))
		}
		row(win, "dispatch", "ops", c.dispatch.at(win))
	}
	return err
}
