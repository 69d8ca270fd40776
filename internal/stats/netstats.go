package stats

import (
	"fmt"
	"sort"
	"strings"
)

// LinkStat is the traffic observed on one fabric link.
type LinkStat struct {
	Name  string
	Bytes int64
	Msgs  int64
}

// NetStats is the interconnect view of a run: per-link traffic, traffic
// that never left a node (messages between co-located protocol agents),
// and the bytes crossing the cluster bisection (lower node half to upper
// half and back). An interconnect.Fabric counts into one as it routes
// each message, and publishes it as the run's counters.
type NetStats struct {
	// Topology names the fabric the run used.
	Topology string

	// Links holds one entry per fabric link, in link-id order.
	Links []LinkStat

	// LocalBytes and LocalMsgs count protocol messages whose source and
	// destination node coincide; they appear in the node traffic
	// counters but cross no link.
	LocalBytes int64
	LocalMsgs  int64

	// BisectionBytes is the number of message bytes whose source and
	// destination lie in different halves of the node id space,
	// independent of the route taken.
	BisectionBytes int64

	// Pairs[src][dst] is the bytes injected for each ordered node pair
	// with src != dst — the route-independent ground truth the audit
	// subsystem checks the per-node traffic counters against.
	Pairs [][]int64
}

// InjectedBytes sums the per-pair injections plus node-local messages:
// every byte a node's traffic counter recorded, counted once regardless
// of route length. Conservation requires it to equal the summed
// per-node TrafficBytes of the run.
func (n *NetStats) InjectedBytes() int64 {
	t := n.LocalBytes
	for _, row := range n.Pairs {
		for _, b := range row {
			t += b
		}
	}
	return t
}

// TotalLinkBytes sums bytes over every link. A message on an h-hop route
// contributes h times, so this measures fabric load, not injected
// traffic.
func (n *NetStats) TotalLinkBytes() int64 {
	var t int64
	for _, l := range n.Links {
		t += l.Bytes
	}
	return t
}

// MaxLink returns the most loaded link (ties broken by name, so the
// result is deterministic).
func (n *NetStats) MaxLink() LinkStat {
	var max LinkStat
	for _, l := range n.Links {
		if l.Bytes > max.Bytes || (l.Bytes == max.Bytes && max.Name != "" && l.Name < max.Name) {
			max = l
		}
	}
	return max
}

// HotLinks returns the k most loaded links, sorted by descending bytes
// with name as the deterministic tie-break. k <= 0 returns all links.
func (n *NetStats) HotLinks(k int) []LinkStat {
	out := append([]LinkStat(nil), n.Links...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// NetReport renders the hot-link table: the k most loaded links with
// their share of the total fabric load, plus the local and bisection
// summaries.
func (n *NetStats) NetReport(k int) string {
	var b strings.Builder
	total := n.TotalLinkBytes()
	fmt.Fprintf(&b, "%s fabric: %d links, %d bytes on links, %d local, %d across bisection\n",
		n.Topology, len(n.Links), total, n.LocalBytes, n.BisectionBytes)
	fmt.Fprintf(&b, "  %-18s %12s %10s %7s\n", "link", "bytes", "msgs", "share")
	for _, l := range n.HotLinks(k) {
		share := 0.0
		if total > 0 {
			share = float64(l.Bytes) / float64(total)
		}
		fmt.Fprintf(&b, "  %-18s %12d %10d %6.1f%%\n", l.Name, l.Bytes, l.Msgs, 100*share)
	}
	return b.String()
}
