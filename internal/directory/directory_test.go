package directory

import (
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

func TestReadSharingAccumulates(t *testing.T) {
	d := New(16, 8)
	d.AddSharer(3, 1)
	d.AddSharer(3, 4)
	e := d.Entry(3)
	if e.State != SharedState {
		t.Errorf("state = %v, want shared", e.State)
	}
	if e.Sharers != (1<<1)|(1<<4) {
		t.Errorf("sharers = %b", e.Sharers)
	}
	if got := bits.OnesCount64(d.Sharers(3)); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := New(16, 8)
	d.AddSharer(0, 1)
	d.AddSharer(0, 2)
	inv := d.SetOwner(0, 3)
	if inv != (1<<1)|(1<<2) {
		t.Errorf("invalidated = %b, want nodes 1 and 2", inv)
	}
	e := d.Entry(0)
	if e.State != ModifiedState || e.Owner != 3 || e.Sharers != 1<<3 {
		t.Errorf("entry = %+v", e)
	}
}

func TestOwnershipTransfer(t *testing.T) {
	d := New(16, 8)
	d.SetOwner(0, 1)
	inv := d.SetOwner(0, 2)
	if inv != 1<<1 {
		t.Errorf("invalidated = %b, want old owner", inv)
	}
	if owner, dirty := d.IsDirtyRemote(0, 5); !dirty || owner != 2 {
		t.Errorf("dirty remote = (%d,%v)", owner, dirty)
	}
	if _, dirty := d.IsDirtyRemote(0, 2); dirty {
		t.Error("owner sees itself as dirty remote")
	}
}

func TestWriteBack(t *testing.T) {
	d := New(16, 8)
	d.SetOwner(5, 4)
	d.WriteBack(5, 4)
	e := d.Entry(5)
	if e.State != Idle || e.Owner != -1 || e.Sharers != 0 {
		t.Errorf("after writeback: %+v", e)
	}
	// Writeback from a non-owner is ignored.
	d.SetOwner(5, 1)
	d.WriteBack(5, 2)
	if d.Entry(5).State != ModifiedState {
		t.Error("foreign writeback destroyed ownership")
	}
}

func TestDowngradeOnReadOfDirty(t *testing.T) {
	d := New(16, 8)
	d.SetOwner(1, 6)
	// A read by node 2: protocol writes back and both become sharers.
	d.WriteBack(1, 6)
	d.AddSharer(1, 6)
	d.AddSharer(1, 2)
	e := d.Entry(1)
	if e.State != SharedState || e.Sharers != (1<<6)|(1<<2) {
		t.Errorf("entry = %+v", e)
	}
}

func TestInvalidateAll(t *testing.T) {
	d := New(16, 8)
	d.AddSharer(2, 0)
	d.AddSharer(2, 7)
	held := d.InvalidateAll(2)
	if held != (1<<0)|(1<<7) {
		t.Errorf("held = %b", held)
	}
	if d.Entry(2).State != Idle {
		t.Error("block not idle after gather")
	}
}

func TestDropSharer(t *testing.T) {
	d := New(16, 8)
	d.AddSharer(9, 3)
	d.AddSharer(9, 5)
	d.DropSharer(9, 3)
	if d.Entry(9).Sharers != 1<<5 {
		t.Errorf("sharers = %b", d.Entry(9).Sharers)
	}
	d.DropSharer(9, 5)
	if d.Entry(9).State != Idle {
		t.Error("block with no sharers not idle")
	}
}

func TestAddSharerDowngradesModified(t *testing.T) {
	d := New(16, 8)
	d.SetOwner(0, 1)
	d.AddSharer(0, 2)
	e := d.Entry(0)
	if e.State != SharedState || e.Owner != -1 {
		t.Errorf("entry = %+v, want downgraded shared", e)
	}
}

// refModel is an executable specification: a set of clean holders plus
// an optional dirty owner.
type refModel struct {
	clean map[int]bool
	owner int
}

func newRef() *refModel { return &refModel{clean: map[int]bool{}, owner: -1} }

func (r *refModel) read(n int) {
	if r.owner >= 0 {
		r.clean[r.owner] = true
		r.owner = -1
	}
	r.clean[n] = true
}

func (r *refModel) write(n int) {
	r.clean = map[int]bool{}
	r.owner = n
}

func (r *refModel) holders() uint64 {
	var m uint64
	for n := range r.clean {
		m |= 1 << uint(n)
	}
	if r.owner >= 0 {
		m |= 1 << uint(r.owner)
	}
	return m
}

func TestDirectoryAgainstReferenceModel(t *testing.T) {
	// Property: after any sequence of reads/writes, the directory's
	// sharer set equals the reference holders and the owner matches.
	f := func(ops []uint8) bool {
		d := New(1, 8)
		ref := newRef()
		for _, op := range ops {
			n := int(op % 8)
			if op&0x80 != 0 {
				ref.write(n)
				d.SetOwner(0, n)
			} else {
				ref.read(n)
				if owner, dirty := d.IsDirtyRemote(0, n); dirty {
					// protocol: owner downgrades on a foreign read
					d.WriteBack(0, owner)
					d.AddSharer(0, owner)
				}
				d.AddSharer(0, n)
			}
			if d.Check() != nil {
				return false
			}
			e := d.Entry(0)
			if e.Sharers != ref.holders() {
				return false
			}
			wantOwner := int8(-1)
			if ref.owner >= 0 {
				wantOwner = int8(ref.owner)
			}
			if e.Owner != wantOwner {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	d := New(4, 8)
	e := d.Entry(1)
	e.State = ModifiedState // owner missing
	d.Set(1, e)
	if d.Check() == nil {
		t.Error("Check accepted modified block without owner")
	}
	d2 := New(4, 8)
	e = d2.Entry(0)
	e.Sharers = 1 // idle with sharers
	d2.Set(0, e)
	if d2.Check() == nil {
		t.Error("Check accepted idle block with sharers")
	}
}

func TestNewRejectsBadNodeCounts(t *testing.T) {
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() { recover() }()
			New(4, n)
			t.Errorf("New accepted %d nodes", n)
		}()
	}
}

// TestResetMatchesNew: a used directory, once Reset to another size
// and node count, equals one New builds for them.
func TestResetMatchesNew(t *testing.T) {
	d := New(256, 8)
	for b := memory.Block(0); b < 250; b += 5 {
		d.SetOwner(b, int(b)%8)
		d.AddSharer(b+1, 3)
	}
	for _, c := range []struct {
		blocks uint64
		nodes  int
	}{{100, 4}, {512, 8}} {
		d.Reset(c.blocks, c.nodes)
		if !reflect.DeepEqual(d, New(c.blocks, c.nodes)) {
			t.Errorf("reset to %d blocks, %d nodes: differs from New", c.blocks, c.nodes)
		}
	}
}

// TestEveryEntryRoundTrips: every state with every owner from -1 to 63
// reads back as Set wrote it on a 64-node directory, next to
// neighbours holding other pairs, and Check reports each pair the
// protocol never writes.
func TestEveryEntryRoundTrips(t *testing.T) {
	var want []Entry
	for _, s := range []State{Idle, SharedState, ModifiedState} {
		for owner := -1; owner < 64; owner++ {
			want = append(want, Entry{State: s, Owner: int8(owner), Sharers: 1<<63 | uint64(len(want))})
		}
	}
	d := New(uint64(len(want)), 64)
	for i, e := range want {
		d.Set(memory.Block(i), e)
	}
	bytes := map[uint8]Entry{}
	for i, e := range want {
		if got := d.Entry(memory.Block(i)); got != e {
			t.Errorf("Set(%+v) reads back %+v", e, got)
		}
		if prev, ok := bytes[d.meta[i]]; ok {
			t.Errorf("%+v and %+v share byte %#x", prev, e, d.meta[i])
		}
		bytes[d.meta[i]] = e
	}
	for _, e := range want {
		one := New(1, 64)
		e.Sharers = 0
		if e.State == ModifiedState && e.Owner >= 0 {
			e.Sharers = 1 << uint(e.Owner)
		}
		one.Set(0, e)
		valid := e.Owner == -1 && e.State != ModifiedState || e.State == ModifiedState && e.Owner >= 0
		if err := one.Check(); (err == nil) != valid {
			t.Errorf("%+v: Check = %v", e, err)
		}
	}
	if got := New(1, 8).Entry(0); got != (Entry{Owner: -1}) {
		t.Errorf("fresh entry = %+v, want idle with no owner", got)
	}
}

// TestSetRejectsUnnamedPairs: Set panics on a state or owner no byte
// holds.
func TestSetRejectsUnnamedPairs(t *testing.T) {
	for _, e := range []Entry{{State: 3, Owner: -1}, {Owner: -2}, {State: ModifiedState, Owner: 64}} {
		func() {
			defer func() { recover() }()
			New(1, 64).Set(0, e)
			t.Errorf("Set accepted %+v", e)
		}()
	}
}
