package memory

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func TestAddrDecomposition(t *testing.T) {
	a := Addr(config.PageBytes + 3*config.BlockBytes + 5)
	if a.Page() != 1 {
		t.Errorf("page = %d, want 1", a.Page())
	}
	if a.Block() != Block(config.BlocksPerPage+3) {
		t.Errorf("block = %d, want %d", a.Block(), config.BlocksPerPage+3)
	}
	if a.Block().Page() != 1 {
		t.Errorf("block.Page = %d, want 1", a.Block().Page())
	}
	if a.Block().Index() != 3 {
		t.Errorf("block index = %d, want 3", a.Block().Index())
	}
}

func TestAddrBlockPageConsistency(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw)
		b := a.Block()
		p := a.Page()
		return b.Page() == p &&
			b.Addr() <= a && a < b.Addr()+config.BlockBytes &&
			p.Addr() <= a && a < p.Addr()+config.PageBytes &&
			p.FirstBlock()+Block(b.Index()) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocatorPageAlignment(t *testing.T) {
	al := NewAllocator()
	r1 := al.Alloc("a", 100)
	r2 := al.Alloc("b", config.PageBytes+1)
	if r1.Start%config.PageBytes != 0 || r2.Start%config.PageBytes != 0 {
		t.Error("allocations not page aligned")
	}
	if r1.Size != config.PageBytes {
		t.Errorf("100 bytes rounded to %d, want one page", r1.Size)
	}
	if r2.Size != 2*config.PageBytes {
		t.Errorf("page+1 rounded to %d, want two pages", r2.Size)
	}
	if got := al.Bytes() >> config.PageShift; got != 3 {
		t.Errorf("total pages = %d, want 3", got)
	}
}

func TestAllocatorDisjoint(t *testing.T) {
	f := func(sizes []uint16) bool {
		al := NewAllocator()
		var regs []Region
		for _, s := range sizes {
			regs = append(regs, al.Alloc("r", uint64(s)))
		}
		for i := range regs {
			for j := i + 1; j < len(regs); j++ {
				a, b := regs[i], regs[j]
				if a.Start < b.Start+Addr(b.Size) && b.Start < a.Start+Addr(a.Size) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
