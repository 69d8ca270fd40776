package cache

import (
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/memory"
)

func TestL1DirectMappedConflict(t *testing.T) {
	c := NewL1(config.L1Bytes)
	sets := memory.Block(c.Sets())
	c.Insert(0, Shared)
	if c.Lookup(0) != Shared {
		t.Fatal("inserted block missing")
	}
	// A block mapping to the same set displaces it.
	v := c.Insert(sets, Modified)
	if !v.Valid || v.Block != 0 || v.Dirty {
		t.Fatalf("victim = %+v, want clean block 0", v)
	}
	if c.Lookup(0) != Invalid {
		t.Error("displaced block still resident")
	}
	if c.Lookup(sets) != Modified {
		t.Error("new block not resident")
	}
}

func TestL1DirtyVictim(t *testing.T) {
	c := NewL1(config.L1Bytes)
	sets := memory.Block(c.Sets())
	c.Insert(5, Modified)
	v := c.Insert(5+sets, Shared)
	if !v.Valid || !v.Dirty || v.Block != 5 {
		t.Fatalf("victim = %+v, want dirty block 5", v)
	}
}

func TestL1ReinsertUpdatesState(t *testing.T) {
	c := NewL1(config.L1Bytes)
	c.Insert(9, Shared)
	v := c.Insert(9, Modified)
	if v.Valid {
		t.Error("reinserting resident block produced a victim")
	}
	if c.Lookup(9) != Modified {
		t.Error("state not upgraded")
	}
}

func TestL1Invalidate(t *testing.T) {
	c := NewL1(config.L1Bytes)
	c.Insert(3, Modified)
	present, dirty := c.Invalidate(3)
	if !present || !dirty {
		t.Errorf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if present, _ := c.Invalidate(3); present {
		t.Error("double invalidate reported presence")
	}
}

func TestL1SetStatePanicsOnAbsent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetState on absent block did not panic")
		}
	}()
	NewL1(config.L1Bytes).SetState(1, Modified)
}

func TestBlockCacheLRU(t *testing.T) {
	// 4-way cache with enough sets; use same-set blocks.
	bc := NewBlockCache(config.BlockCacheBytes, 4)
	sets := memory.Block(config.BlockCacheBytes / config.BlockBytes / 4)
	same := func(i int) memory.Block { return memory.Block(i) * sets }
	for i := 0; i < 4; i++ {
		if v := bc.Insert(same(i), Shared); v.Valid {
			t.Fatalf("eviction while filling way %d", i)
		}
	}
	// Touch block 0 so it becomes MRU; inserting a fifth must evict the
	// LRU (block 1).
	bc.Lookup(same(0))
	v := bc.Insert(same(4), Shared)
	if !v.Valid || v.Block != same(1) {
		t.Fatalf("victim = %+v, want block %d", v, same(1))
	}
	if bc.Probe(same(0)) == Invalid {
		t.Error("MRU block was evicted")
	}
}

func TestBlockCacheProbeDoesNotPromote(t *testing.T) {
	bc := NewBlockCache(config.BlockCacheBytes, 4)
	sets := memory.Block(config.BlockCacheBytes / config.BlockBytes / 4)
	same := func(i int) memory.Block { return memory.Block(i) * sets }
	for i := 0; i < 4; i++ {
		bc.Insert(same(i), Shared)
	}
	bc.Probe(same(0)) // must NOT refresh LRU position
	v := bc.Insert(same(4), Shared)
	if v.Block != same(0) {
		t.Errorf("victim = %d, want the probed-but-not-promoted block %d", v.Block, same(0))
	}
}

func TestBlockCacheInvalidate(t *testing.T) {
	bc := NewBlockCache(config.BlockCacheBytes, 4)
	bc.Insert(7, Modified)
	present, dirty := bc.Invalidate(7)
	if !present || !dirty {
		t.Errorf("invalidate = (%v,%v)", present, dirty)
	}
	if st := bc.Probe(7); st != Invalid {
		t.Error("block survived invalidation")
	}
	// The freed way is reusable without eviction.
	if v := bc.Insert(7, Shared); v.Valid {
		t.Error("insert into freed way evicted")
	}
}

func TestInfiniteBlockCacheNeverEvicts(t *testing.T) {
	bc := NewInfiniteBlockCache()
	if !bc.infinite {
		t.Fatal("not infinite")
	}
	for i := 0; i < 100000; i++ {
		if v := bc.Insert(memory.Block(i), Shared); v.Valid {
			t.Fatalf("infinite cache evicted at block %d", i)
		}
	}
	for i := 0; i < 100000; i += 9999 {
		if bc.Lookup(memory.Block(i)) != Shared {
			t.Fatalf("block %d missing", i)
		}
	}
}

func TestBlockCacheAssociativityBound(t *testing.T) {
	// Property: a set never holds more than `ways` blocks — inserting N
	// same-set blocks yields exactly max(0, N-ways) victims.
	f := func(n uint8) bool {
		ways := 4
		bc := NewBlockCache(config.BlockCacheBytes, ways)
		sets := memory.Block(config.BlockCacheBytes / config.BlockBytes / ways)
		victims := 0
		for i := 0; i < int(n); i++ {
			if v := bc.Insert(memory.Block(i)*sets, Shared); v.Valid {
				victims++
			}
		}
		want := int(n) - ways
		if want < 0 {
			want = 0
		}
		return victims == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageCacheLRUEviction(t *testing.T) {
	pc := NewPageCache(3 * config.PageBytes)
	if pc.capacity != 3 {
		t.Fatalf("capacity = %d, want 3", pc.capacity)
	}
	pc.Allocate(1)
	pc.Allocate(2)
	pc.Allocate(3)
	if !pc.Full() {
		t.Fatal("cache of 3 not full after 3 allocations")
	}
	pc.Touch(1) // 1 becomes MRU; LRU is 2
	e := pc.EvictLRU()
	if e.Page != 2 {
		t.Errorf("evicted page %d, want 2", e.Page)
	}
	if pc.resident != 2 {
		t.Errorf("len = %d, want 2", pc.resident)
	}
}

func TestPageCacheTags(t *testing.T) {
	pc := NewPageCache(config.PageCacheBytes)
	e := pc.Allocate(9)
	e.Valid |= 1 << 5
	e.Dirty |= 1 << 5
	e.Valid |= 1 << 60
	if got := bits.OnesCount64(e.Valid); got != 2 {
		t.Errorf("valid blocks = %d, want 2", got)
	}
	if got := bits.OnesCount64(e.Dirty); got != 1 {
		t.Errorf("dirty blocks = %d, want 1", got)
	}
	if got := pc.Entry(9); got != e {
		t.Error("entry lookup mismatch")
	}
	if pc.Entry(10) != nil {
		t.Error("absent page has an entry")
	}
}

func TestPageCacheRemove(t *testing.T) {
	pc := NewPageCache(3 * config.PageBytes)
	pc.Allocate(4)
	pc.Allocate(5)
	if pc.Remove(4) == nil {
		t.Fatal("remove of resident page returned nil")
	}
	if pc.Remove(4) != nil {
		t.Fatal("double remove returned a frame")
	}
	if pc.Full() {
		t.Error("cache full after removal")
	}
	// LRU list stays consistent after removal.
	pc.Allocate(6)
	pc.Allocate(7)
	if e := pc.EvictLRU(); e.Page != 5 {
		t.Errorf("LRU = %d, want 5", e.Page)
	}
}

func TestInfinitePageCache(t *testing.T) {
	pc := NewPageCache(0)
	if pc.capacity != 0 {
		t.Fatal("capacity 0 not infinite")
	}
	for i := 0; i < 10000; i++ {
		if pc.Full() {
			t.Fatal("infinite page cache reported full")
		}
		pc.Allocate(memory.Page(i))
	}
	if pc.resident != 10000 {
		t.Errorf("len = %d", pc.resident)
	}
}

func TestPageCacheDoubleAllocatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double allocate did not panic")
		}
	}()
	pc := NewPageCache(config.PageCacheBytes)
	pc.Allocate(1)
	pc.Allocate(1)
}

func TestPageCacheLRUOrderProperty(t *testing.T) {
	// Property: after any touch sequence, evictions come out in
	// least-recently-used order (verified against a reference model).
	f := func(touches []uint8) bool {
		const pages = 8
		pc := NewPageCache(pages * config.PageBytes)
		var ref []memory.Page // front = LRU, back = MRU
		for i := 0; i < pages; i++ {
			pc.Allocate(memory.Page(i))
			ref = append(ref, memory.Page(i))
		}
		for _, raw := range touches {
			p := memory.Page(raw % pages)
			pc.Touch(p)
			for i, q := range ref {
				if q == p {
					ref = append(append(ref[:i], ref[i+1:]...), p)
					break
				}
			}
		}
		for len(ref) > 0 {
			e := pc.EvictLRU()
			if e == nil || e.Page != ref[0] {
				return false
			}
			ref = ref[1:]
		}
		return pc.EvictLRU() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestResetMatchesFresh: a used cache, once Reset, equals a freshly
// built one, and an infinite cache shrunk by Reset exposes no stale
// state when it grows again.
func TestResetMatchesFresh(t *testing.T) {
	l1 := NewL1(config.L1Bytes)
	bc := NewBlockCache(config.BlockCacheBytes, config.BlockCacheWays)
	inf := NewInfiniteBlockCache()
	inf.Reset(64)
	for b := memory.Block(0); b < 2048; b += 3 {
		l1.Insert(b, Modified)
		bc.Insert(b, Shared)
		inf.Insert(b, Modified)
	}
	l1.Reset()
	bc.Reset(0)
	inf.Reset(64)
	if !reflect.DeepEqual(l1, NewL1(config.L1Bytes)) {
		t.Error("reset L1 differs from a new one")
	}
	if !reflect.DeepEqual(bc, NewBlockCache(config.BlockCacheBytes, config.BlockCacheWays)) {
		t.Error("reset block cache differs from a new one")
	}
	fresh := NewInfiniteBlockCache()
	fresh.Reset(64)
	if !reflect.DeepEqual(inf, fresh) {
		t.Error("reset infinite block cache differs from a new one")
	}
	inf.Insert(2047, Shared) // grows back over the entries Reset cut off
	for b := memory.Block(64); b < 2047; b++ {
		if st := inf.Probe(b); st != Invalid {
			t.Fatalf("block %d is %v after the cache shrank and grew", b, st)
		}
	}
}

// TestPageCacheResetReusesFrames: a used page cache, once Reset, holds
// no page, replays an LRU sequence as a new one does, and serves its
// Allocates from the frames it held, allocating nothing.
func TestPageCacheResetReusesFrames(t *testing.T) {
	const frames = 4
	seq := []memory.Page{3, 1, 3, 7, 2, 1, 6, 5, 3, 0}
	replay := func(c *PageCache, evicted []memory.Page) []memory.Page {
		for _, p := range seq {
			if c.Touch(p) != nil {
				continue
			}
			if c.Full() {
				evicted = append(evicted, c.EvictLRU().Page)
			}
			if e := c.Allocate(p); e.Valid != 0 || e.Dirty != 0 {
				t.Fatalf("page %d allocated with tags %b/%b", p, e.Valid, e.Dirty)
			}
			c.Entry(p).Valid, c.Entry(p).Dirty = 1<<p, 1
		}
		return evicted
	}
	pc := NewPageCacheSized(frames*config.PageBytes, 16)
	for p := memory.Page(0); p < 12; p++ {
		if pc.Full() {
			pc.EvictLRU()
		}
		pc.Allocate(p).Valid = 1
	}
	pc.Remove(11)
	for _, pages := range []int{8, 32, 8} {
		pc.Reset(pages)
		if pc.resident != 0 || pc.EvictLRU() != nil {
			t.Fatalf("Reset(%d) left %d pages", pages, pc.resident)
		}
		for p := range memory.Page(pages) {
			if pc.Entry(p) != nil {
				t.Fatalf("Reset(%d) left page %d", pages, p)
			}
		}
		want := replay(NewPageCacheSized(frames*config.PageBytes, pages), nil)
		got := make([]memory.Page, 0, len(seq))
		allocs := testing.AllocsPerRun(3, func() {
			pc.Reset(pages)
			got = replay(pc, got[:0])
		})
		if allocs != 0 {
			t.Errorf("Reset(%d): a replay allocates %v times, want its frames from the free list", pages, allocs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Reset(%d): evictions %v, a new cache evicts %v", pages, got, want)
		}
	}
}
