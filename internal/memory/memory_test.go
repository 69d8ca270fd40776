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
	if al.Pages() != 3 {
		t.Errorf("total pages = %d, want 3", al.Pages())
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

func TestRegionOf(t *testing.T) {
	al := NewAllocator()
	a := al.Alloc("alpha", 4096)
	b := al.Alloc("beta", 8192)
	if r, ok := al.RegionOf(a.Start + 10); !ok || r.Name != "alpha" {
		t.Error("address in alpha not found")
	}
	if r, ok := al.RegionOf(b.Start + 5000); !ok || r.Name != "beta" {
		t.Error("address in beta not found")
	}
	if _, ok := al.RegionOf(b.Start + Addr(b.Size)); ok {
		t.Error("address past the heap resolved to a region")
	}
}

func TestFirstTouch(t *testing.T) {
	pt := NewPageTable(8)
	if home := pt.FirstTouch(5, 3); home != 3 {
		t.Errorf("first touch home = %d, want 3", home)
	}
	// Second toucher does not move the page.
	if home := pt.FirstTouch(5, 6); home != 3 {
		t.Errorf("second touch moved home to %d", home)
	}
	if pt.Entry(5).Mode[3] != ModeHome {
		t.Error("home node mode not set")
	}
}

func TestSetHome(t *testing.T) {
	pt := NewPageTable(4)
	pt.FirstTouch(2, 0)
	pt.SetHome(2, 3)
	e := pt.Entry(2)
	if e.Home != 3 {
		t.Errorf("home = %d, want 3", e.Home)
	}
	if e.Mode[0] != ModeUnmapped {
		t.Errorf("old home mode = %v, want unmapped", e.Mode[0])
	}
	if e.Mode[3] != ModeHome {
		t.Errorf("new home mode = %v, want home", e.Mode[3])
	}
}

func TestPageTableGrowsLazily(t *testing.T) {
	pt := NewPageTable(2)
	if pt.NumPages() != 0 {
		t.Error("fresh table not empty")
	}
	pt.Entry(99)
	if pt.NumPages() != 100 {
		t.Errorf("table covers %d pages, want 100", pt.NumPages())
	}
	if pt.Entry(50).Home != -1 {
		t.Error("untouched page has a home")
	}
}

func TestPageModeString(t *testing.T) {
	modes := map[PageMode]string{
		ModeUnmapped: "unmapped", ModeCCNUMA: "ccnuma", ModeSCOMA: "scoma",
		ModeReplica: "replica", ModeHome: "home",
	}
	for m, want := range modes {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}
