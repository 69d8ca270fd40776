package interconnect

import (
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Fabric is a Topology instantiated with timing: a fixed per-hop
// latency and per-link byte/message counters. Links have no bandwidth
// limit, so messages never queue on them. All methods are deterministic.
type Fabric struct {
	topo       *Topology
	hopLatency int64

	linkBytes []int64
	linkMsgs  []int64

	// pairBytes[src][dst] accumulates the bytes injected for each
	// ordered node pair, the ground truth for conservation checks
	// (sum over links == sum over pairs of bytes x route hops).
	pairBytes [][]int64

	localBytes int64
	localMsgs  int64

	// obs receives every link traversal on its windowed per-link
	// series, keyed by the injection time at that hop. Purely
	// observational; the nil default is a no-op observer whose Link
	// hook inlines to one branch per hop.
	obs *telemetry.Collector
}

// New builds the fabric described by a config.Network for the given node
// count, with hop latency tm.NetworkLatency. The zero-value Network
// yields the ideal crossbar — the paper's original flat network model.
func New(net config.Network, nodes int, tm config.Timing) (*Fabric, error) {
	topo, err := NewTopology(net, nodes)
	if err != nil {
		return nil, err
	}
	return NewFabric(topo, tm), nil
}

// NewFabric builds a fabric over topo with hop latency
// tm.NetworkLatency and zeroed counters. The fabric only reads topo,
// so fabrics may share one.
func NewFabric(topo *Topology, tm config.Timing) *Fabric {
	n := topo.Nodes
	links := make([]int64, 2*len(topo.Links))
	pairs := make([]int64, n*n)
	f := &Fabric{
		topo:       topo,
		hopLatency: tm.NetworkLatency,
		linkBytes:  links[:len(topo.Links):len(topo.Links)],
		linkMsgs:   links[len(topo.Links):],
		pairBytes:  make([][]int64, n),
	}
	for i := range f.pairBytes {
		f.pairBytes[i] = pairs[i*n : (i+1)*n : (i+1)*n]
	}
	return f
}

// Topology returns the underlying fabric graph.
func (f *Fabric) Topology() *Topology { return f.topo }

// HopLatency returns the per-hop latency in cycles.
func (f *Fabric) HopLatency() int64 { return f.hopLatency }

// ExtraHopLatency returns the latency a src->dst traversal costs beyond
// the single hop the flat network model already charges: zero on the
// crossbar (and for node-local messages), (hops-1) x hop latency on
// multi-hop fabrics. It lets protocol legs whose base cost is a flat
// timing constant (3-hop forwards, invalidation ack waves) scale with
// distance without disturbing the crossbar-compatible baseline.
//
//repro:hotpath
func (f *Fabric) ExtraHopLatency(src, dst int) int64 {
	hops := len(f.topo.Route(src, dst))
	if hops <= 1 {
		return 0
	}
	return int64(hops-1) * f.hopLatency
}

// SetObserver attaches a telemetry collector: every message charges its
// bytes to the crossed link's windowed series at the simulated time the
// message reaches that hop, alongside the existing aggregate counters.
// The windowed totals therefore reconcile exactly with the linkBytes
// counters.
func (f *Fabric) SetObserver(o *telemetry.Collector) { f.obs = o }

// Traverse routes one message of the given size from src to dst starting
// at time now: every link on the route is charged the message's bytes
// and adds one hop latency. It returns the arrival time at dst. A
// message to the sending node itself crosses no link and arrives
// immediately; its bytes are accounted as local. The fabric takes now
// as given: the caller that knows the event being dispatched checks it
// (dsm's audit mode).
//
//repro:hotpath
func (f *Fabric) Traverse(src, dst int, bytes int64, now int64) int64 {
	route := f.topo.Route(src, dst)
	if len(route) == 0 {
		f.localBytes += bytes
		f.localMsgs++
		return now
	}
	f.pairBytes[src][dst] += bytes
	t := now
	for _, id := range route {
		f.linkBytes[id] += bytes
		f.linkMsgs[id]++
		f.obs.Link(id, bytes, t)
		t += f.hopLatency
	}
	return t
}

// Deliver is Traverse for messages nothing waits on (asynchronous
// writebacks, invalidation fan-out, bulk page copies overlapped with
// their fixed cost): links are charged, the arrival time is discarded.
//
//repro:hotpath
func (f *Fabric) Deliver(src, dst int, bytes int64, now int64) {
	f.Traverse(src, dst, bytes, now)
}

// TotalLinkBytes sums the byte counters over all links.
func (f *Fabric) TotalLinkBytes() int64 {
	var t int64
	for _, b := range f.linkBytes {
		t += b
	}
	return t
}

// LocalBytes returns the bytes of messages whose source and destination
// node coincided.
func (f *Fabric) LocalBytes() int64 { return f.localBytes }

// RouteMaxLinkBytes returns the byte counter of the most-loaded link on
// the src->dst route (zero for node-local routes). Contention-aware
// policies use it to ask whether the path a bulk transfer would take is
// currently the fabric's hot spot.
func (f *Fabric) RouteMaxLinkBytes(src, dst int) int64 {
	var max int64
	for _, id := range f.topo.Route(src, dst) {
		if f.linkBytes[id] > max {
			max = f.linkBytes[id]
		}
	}
	return max
}

// MeanLinkBytes returns the mean per-link byte counter over every link
// of the fabric (zero on a linkless single-node topology).
func (f *Fabric) MeanLinkBytes() int64 {
	if len(f.linkBytes) == 0 {
		return 0
	}
	return f.TotalLinkBytes() / int64(len(f.linkBytes))
}

// PairBytes returns the injected bytes for one ordered node pair.
func (f *Fabric) PairBytes(src, dst int) int64 { return f.pairBytes[src][dst] }

// Snapshot renders the fabric counters as a stats.NetStats view.
func (f *Fabric) Snapshot() *stats.NetStats {
	n := f.topo.Nodes
	out := &stats.NetStats{
		Topology:   f.topo.Name,
		Links:      make([]stats.LinkStat, len(f.linkBytes)),
		LocalBytes: f.localBytes,
		LocalMsgs:  f.localMsgs,
		Pairs:      make([][]int64, n),
	}
	for s := 0; s < n; s++ {
		out.Pairs[s] = append([]int64(nil), f.pairBytes[s]...)
	}
	for i, l := range f.topo.Links {
		out.Links[i] = stats.LinkStat{Name: l.Name, Bytes: f.linkBytes[i], Msgs: f.linkMsgs[i]}
	}
	half := n / 2
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if (s < half) != (d < half) {
				out.BisectionBytes += f.pairBytes[s][d]
			}
		}
	}
	return out
}
