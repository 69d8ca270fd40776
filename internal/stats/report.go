package stats

import (
	"fmt"
	"strings"
)

// PerNodeReport renders a table with one row per node: misses by class,
// cache hit counts, page operations and traffic. It is the detailed view
// behind Summary.
func (s *Sim) PerNodeReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %9s %9s %9s %9s %8s %8s %6s %6s %6s %10s\n",
		"node", "cold", "coher", "cap/conf", "local", "bc-hit", "pc-hit",
		"mig", "rep", "reloc", "traffic")
	for i := range s.Nodes {
		n := &s.Nodes[i]
		var local int64
		for _, v := range n.LocalMisses {
			local += v
		}
		fmt.Fprintf(&b, "%-5d %9d %9d %9d %9d %8d %8d %6d %6d %6d %10d\n",
			i,
			n.RemoteMisses[Cold], n.RemoteMisses[Coherence], n.RemoteMisses[CapacityConflict],
			local, n.BlockCacheHits, n.PageCacheHits,
			n.PageOps[Migration], n.PageOps[Replication], n.PageOps[Relocation],
			n.TrafficBytes)
	}
	return b.String()
}

// CSV and JSON rendering of experiment results lives in
// internal/harness (Result.Records, WriteCSVRows, RecordsJSON), which
// flattens each run — including its fabric and interconnect stats —
// into one Record per row.
