package interconnect

import (
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Fabric is a Topology instantiated with timing: a fixed per-hop
// latency, and the run's traffic counters, kept in the stats.NetStats
// that Stats publishes. Links have no bandwidth limit, so messages
// never queue on them. All methods are deterministic.
type Fabric struct {
	topo       *Topology
	hopLatency int64

	// net is counted into by Traverse: Links[id] per link crossed,
	// Pairs[src][dst] per message between distinct nodes (the ground
	// truth of the conservation audit: the link bytes equal the pair
	// bytes weighted by route hops), LocalBytes/LocalMsgs otherwise.
	net stats.NetStats

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
// so fabrics may share one; each counts into a NetStats of its own.
func NewFabric(topo *Topology, tm config.Timing) *Fabric {
	n := topo.Nodes
	f := &Fabric{
		topo:       topo,
		hopLatency: tm.NetworkLatency,
		net: stats.NetStats{
			Topology: topo.Name,
			Links:    make([]stats.LinkStat, len(topo.Links)),
			Pairs:    make([][]int64, n),
		},
	}
	for i, l := range topo.Links {
		f.net.Links[i].Name = l.Name
	}
	pairs := make([]int64, n*n)
	for i := range f.net.Pairs {
		f.net.Pairs[i] = pairs[i*n : (i+1)*n : (i+1)*n]
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
// message reaches that hop, alongside the per-link counters. The
// windowed totals therefore reconcile exactly with Stats().Links.
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
		f.net.LocalBytes += bytes
		f.net.LocalMsgs++
		return now
	}
	f.net.Pairs[src][dst] += bytes
	t := now
	for _, id := range route {
		l := &f.net.Links[id]
		l.Bytes += bytes
		l.Msgs++
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

// RouteMaxLinkBytes returns the byte counter of the most-loaded link on
// the src->dst route (zero for node-local routes). Contention-aware
// policies use it to ask whether the path a bulk transfer would take is
// currently the fabric's hot spot.
func (f *Fabric) RouteMaxLinkBytes(src, dst int) int64 {
	var max int64
	for _, id := range f.topo.Route(src, dst) {
		if b := f.net.Links[id].Bytes; b > max {
			max = b
		}
	}
	return max
}

// MeanLinkBytes returns the mean per-link byte counter over every link
// of the fabric (zero on a linkless single-node topology).
func (f *Fabric) MeanLinkBytes() int64 {
	if len(f.net.Links) == 0 {
		return 0
	}
	return f.net.TotalLinkBytes() / int64(len(f.net.Links))
}

// Stats returns the NetStats the fabric counts into, with
// BisectionBytes summed from its pairs. It is the fabric's own
// NetStats, not a copy: traffic routed after the call shows in it.
func (f *Fabric) Stats() *stats.NetStats {
	n := f.topo.Nodes
	half := n / 2
	f.net.BisectionBytes = 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if (s < half) != (d < half) {
				f.net.BisectionBytes += f.net.Pairs[s][d]
			}
		}
	}
	return &f.net
}
