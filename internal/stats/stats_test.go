package stats

import (
	"strings"
	"testing"
)

func newSim() *Sim {
	s := New("CC-NUMA", "lu", 4)
	s.Nodes[0].RemoteMisses[Cold] = 10
	s.Nodes[0].RemoteMisses[CapacityConflict] = 30
	s.Nodes[1].RemoteMisses[Coherence] = 5
	s.Nodes[2].LocalMisses[Cold] = 7
	s.Nodes[0].PageOps[Migration] = 2
	s.Nodes[3].PageOps[Migration] = 4
	s.Nodes[1].PageOps[Relocation] = 8
	s.Nodes[0].TrafficBytes = 100
	s.Nodes[2].TrafficBytes = 50
	s.ExecCycles = 1000
	return s
}

func TestTotals(t *testing.T) {
	s := newSim()
	if got := s.TotalRemoteMisses(); got != 45 {
		t.Errorf("remote misses = %d, want 45", got)
	}
	local := int64(0)
	for i := range s.Nodes {
		for _, v := range s.Nodes[i].LocalMisses {
			local += v
		}
	}
	if got := s.TotalRemoteMisses() + local; got != 52 {
		t.Errorf("total misses = %d, want 52", got)
	}
	if got := s.RemoteMissesByClass(CapacityConflict); got != 30 {
		t.Errorf("cap/conf = %d, want 30", got)
	}
	if got := s.TotalTrafficBytes(); got != 150 {
		t.Errorf("traffic = %d, want 150", got)
	}
}

func TestPerNodeAverages(t *testing.T) {
	s := newSim()
	if got := s.PerNodeRemoteMisses(); got != 45.0/4 {
		t.Errorf("per-node misses = %v", got)
	}
	if got := s.PerNodePageOps(Migration); got != 6.0/4 {
		t.Errorf("per-node migrations = %v", got)
	}
	if got := s.PerNodePageOps(Relocation); got != 2 {
		t.Errorf("per-node relocations = %v", got)
	}
}

func TestNormalized(t *testing.T) {
	s := newSim()
	base := New("Perfect", "lu", 4)
	base.ExecCycles = 500
	if got := s.Normalized(base); got != 2.0 {
		t.Errorf("normalized = %v, want 2", got)
	}
	if got := s.Normalized(nil); got != 0 {
		t.Errorf("normalized vs nil = %v, want 0", got)
	}
	zero := New("z", "lu", 4)
	if got := s.Normalized(zero); got != 0 {
		t.Errorf("normalized vs zero = %v, want 0", got)
	}
}

func TestSummaryMentionsEverything(t *testing.T) {
	out := newSim().Summary()
	for _, want := range []string{"lu", "CC-NUMA", "1000", "cap/conf 30", "mig 6", "reloc 8", "150 bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestMissClassStrings(t *testing.T) {
	if Cold.String() != "cold" || Coherence.String() != "coherence" ||
		CapacityConflict.String() != "capacity/conflict" {
		t.Error("miss class strings wrong")
	}
}

func TestPageOpStrings(t *testing.T) {
	want := map[PageOp]string{
		Migration: "migration", Replication: "replication", Collapse: "collapse",
		Relocation: "relocation", Replacement: "replacement",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
}
