// Package store persists generated application traces in a
// content-addressed on-disk cache, so repeat runs and parallel workers
// materialize workloads from disk instead of re-running the generators.
//
// # File naming and content addressing
//
// One trace is one file under the store directory. The name is derived
// from the generation inputs, not the content: the hex SHA-256 (first
// 16 bytes) of the tuple (FormatVersion, app, cpus, scale, seed), with
// a ".trace" suffix. Workload generation is deterministic for a given
// tuple, so the tuple IS the content identity — two processes that
// need the same workload compute the same name with no coordination.
//
// # Binary format
//
// A trace file is an internal/framed frame — magic "DTRC", version
// byte FormatVersion, payload, CRC-32C trailer — around a little-endian
// payload:
//
//	varint nameLen, name bytes
//	varint cpus, barriers, locks, footprint
//	varint opCount  x cpus
//	varint byteLen  x cpus      (per-CPU section lengths)
//	per-CPU sections, concatenated
//
// Each per-CPU section serializes the stream's three logical columns in
// turn: the kind column raw (one byte per op), every op's full gap as
// an unsigned varint, and every op's full arg as a zigzag varint of the
// delta from the previous arg. The in-memory escapes to BigGaps and
// BigArgs are resolved, so the bytes do not depend on them. Block
// numbers and sync ids are locally sequential, so deltas keep most args
// in one byte: ~4 B/op on the SPLASH traces, about as much as the
// in-memory columns hold. The section table up front lets Decode fan
// per-CPU sections out over goroutines.
//
// # Versioning and invalidation
//
// FormatVersion participates in the file name AND is checked in the
// header: an encoding change orphans old files (never read again, and
// rewritten under new names) rather than misparsing them. Writes and
// loads go through internal/framed: files are renamed into place
// complete, and Load treats any decode failure — short file, bad magic
// or version, checksum mismatch, malformed varints, an arg outside 32
// bits — as a cache miss and deletes the offender, so corrupt or
// truncated entries are regenerated silently, never surfaced as
// errors. There is no expiry; the store only grows, and deleting the
// directory (or any file in it) is always safe.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/framed"
	"repro/internal/trace"
)

// FormatVersion identifies the on-disk encoding. Bump it on any change
// to the layout above; old files are then ignored (their names hash the
// old version) and regenerated.
const FormatVersion = 1

// format frames trace files: magic "DTRC", then FormatVersion.
var format = framed.Format{'D', 'T', 'R', 'C', FormatVersion}

// Key identifies one generated workload: the inputs that determine its
// content.
type Key struct {
	App   string
	CPUs  int
	Scale int
	Seed  uint64
}

// Filename returns the content address of the key: hex SHA-256 over the
// generation tuple and format version.
func (k Key) Filename() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d\x00%s\x00%d\x00%d\x00%d", FormatVersion, k.App, k.CPUs, k.Scale, k.Seed)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16]) + ".trace"
}

// Store is a directory of encoded traces. A nil *Store disables
// persistence: Load always misses and Save does nothing, so callers can
// thread an optional store without nil checks.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Path returns the file path a key materializes at.
func (s *Store) Path(k Key) string { return filepath.Join(s.dir, k.Filename()) }

// Load returns the stored trace for k, or ok=false on any miss —
// including a corrupt or truncated file, which it deletes so the slot
// regenerates cleanly.
func (s *Store) Load(k Key) (*trace.Trace, bool) {
	if s == nil {
		return nil, false
	}
	return framed.Load(s.Path(k), Decode)
}

// Save encodes the trace and atomically installs it under k's name.
func (s *Store) Save(k Key, tr *trace.Trace) error {
	if s == nil {
		return nil
	}
	if err := framed.WriteFile(s.Path(k), Encode(tr)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// LoadOrGenerate returns the stored trace for k, or runs gen and saves
// its result. hit reports whether disk satisfied the request. A failed
// Save is ignored: the trace is valid either way, and the next run
// simply regenerates.
func (s *Store) LoadOrGenerate(k Key, gen func() (*trace.Trace, error)) (tr *trace.Trace, hit bool, err error) {
	if tr, ok := s.Load(k); ok {
		return tr, true, nil
	}
	tr, err = gen()
	if err != nil {
		return nil, false, err
	}
	_ = s.Save(k, tr)
	return tr, false, nil
}

// Encode serializes a trace into the store's binary format.
func Encode(tr *trace.Trace) []byte {
	sections := make([][]byte, len(tr.CPUs))
	encodeEachCPU(len(tr.CPUs), func(cpu int) error {
		sections[cpu] = encodeSection(&tr.CPUs[cpu])
		return nil
	})

	size := 10 + len(tr.Name) + 4*10 + 20*len(tr.CPUs)
	for _, sec := range sections {
		size += len(sec)
	}
	buf := format.Begin(size)
	buf = binary.AppendUvarint(buf, uint64(len(tr.Name)))
	buf = append(buf, tr.Name...)
	buf = binary.AppendUvarint(buf, uint64(len(tr.CPUs)))
	buf = binary.AppendUvarint(buf, uint64(tr.Barriers))
	buf = binary.AppendUvarint(buf, uint64(tr.Locks))
	buf = binary.AppendUvarint(buf, tr.Footprint)
	for i := range tr.CPUs {
		buf = binary.AppendUvarint(buf, uint64(tr.CPUs[i].Len()))
	}
	for _, sec := range sections {
		buf = binary.AppendUvarint(buf, uint64(len(sec)))
	}
	for _, sec := range sections {
		buf = append(buf, sec...)
	}
	return framed.Seal(buf)
}

// encodeSection serializes one stream's columns: raw kinds, varint gaps
// and zigzag-delta varint args, the last two read through the stream's
// cursor, which resolves their escapes.
func encodeSection(s *trace.Stream) []byte {
	out := make([]byte, 0, 4*s.Len())
	for _, k := range s.Kinds {
		out = append(out, byte(k))
	}
	for c := s.Cursor(); ; {
		op, ok := c.Next()
		if !ok {
			break
		}
		out = binary.AppendUvarint(out, uint64(op.Gap))
	}
	var prev int64
	for c := s.Cursor(); ; {
		op, ok := c.Next()
		if !ok {
			break
		}
		out = binary.AppendVarint(out, int64(op.Arg)-prev)
		prev = int64(op.Arg)
	}
	return out
}

// errShort is the structural decoding error: a count or length the
// payload cannot back. Like the frame errors, Load treats it as a
// cache miss.
var errShort = errors.New("store: truncated trace file")

// decLimits bounds attacker-controlled counts before any allocation
// sized by them: a hostile header may not demand more memory than its
// own payload justifies.
const (
	maxName = 1 << 12
	maxCPUs = 1 << 16
)

// Decode parses a trace from the store's binary format. It never
// panics on hostile input: every count is validated against the bytes
// that back it before allocation, and the frame's checksum rejects
// truncation and bit rot up front.
func Decode(data []byte) (*trace.Trace, error) {
	p, err := format.Open(data)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}

	nameLen, p, err := uvar(p)
	if err != nil {
		return nil, err
	}
	if nameLen > maxName || nameLen > uint64(len(p)) {
		return nil, errShort
	}
	name := string(p[:nameLen])
	p = p[nameLen:]

	hdr := make([]uint64, 4)
	for i := range hdr {
		if hdr[i], p, err = uvar(p); err != nil {
			return nil, err
		}
	}
	ncpu := hdr[0]
	if ncpu > maxCPUs {
		return nil, errShort
	}
	counts := make([]uint64, ncpu)
	for i := range counts {
		if counts[i], p, err = uvar(p); err != nil {
			return nil, err
		}
		// An op costs at least 3 section bytes (kind byte + 1-byte gap +
		// 1-byte arg), so no count can exceed a third of the bytes left.
		// Rejecting here also caps counts[i] well below 2^62, so the
		// 3*counts[i] comparison below cannot wrap uint64.
		if counts[i] > uint64(len(p))/3 {
			return nil, errShort
		}
	}
	lens := make([]uint64, ncpu)
	for i := range lens {
		if lens[i], p, err = uvar(p); err != nil {
			return nil, err
		}
		// Same minimum: rejects counts the section cannot possibly
		// back, before the column allocations below.
		if lens[i] < 3*counts[i] {
			return nil, errShort
		}
	}
	// p is now exactly the concatenated sections; the declared lengths
	// must tile it. Comparing each length against the bytes not yet
	// claimed keeps total <= len(p) as an invariant, so neither the sum
	// nor the offsets below can wrap.
	var total uint64
	for _, l := range lens {
		if l > uint64(len(p))-total {
			return nil, errShort
		}
		total += l
	}
	if total != uint64(len(p)) {
		return nil, errShort
	}

	tr := &trace.Trace{
		Name:      name,
		CPUs:      make([]trace.Stream, ncpu),
		Barriers:  int(hdr[1]),
		Locks:     int(hdr[2]),
		Footprint: hdr[3],
	}
	offs := make([]uint64, ncpu+1)
	for i, l := range lens {
		offs[i+1] = offs[i] + l
	}
	err = decodeEachCPU(int(ncpu), func(cpu int) error {
		s, err := decodeSection(p[offs[cpu]:offs[cpu+1]], int(counts[cpu]))
		if err != nil {
			return err
		}
		tr.CPUs[cpu] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// decodeSection parses one stream's columns from its section bytes,
// filling the in-memory columns directly: gaps of 255 and up go to
// BigGaps and args of 65535 and up to BigArgs, each behind an escape,
// and an arg outside 32 bits makes the section corrupt. The section
// must be exactly consumed. The varint loops inline the one-byte fast
// path: real traces keep most gaps under 128 cycles and most arg deltas
// within ±63 blocks, so the common case is a single compare-and-copy
// per value and materializing a warm trace stays far cheaper than
// regenerating it.
func decodeSection(p []byte, count int) (trace.Stream, error) {
	var s trace.Stream
	if count > len(p) {
		return s, errShort
	}
	s.Kinds = make([]trace.Kind, count)
	for i, b := range p[:count] {
		if int(b) >= trace.KindCount {
			return trace.Stream{}, fmt.Errorf("store: invalid op kind %d", b)
		}
		s.Kinds[i] = trace.Kind(b)
	}
	p = p[count:]
	s.Gaps = make([]uint8, count)
	var big []uint32
	for i := range s.Gaps {
		if len(p) > 0 && p[0] < 0x80 {
			s.Gaps[i] = p[0]
			p = p[1:]
			continue
		}
		g, n := binary.Uvarint(p)
		if n <= 0 {
			return trace.Stream{}, errShort
		}
		if g > 1<<32-1 {
			return trace.Stream{}, fmt.Errorf("store: gap %d overflows uint32", g)
		}
		if g < trace.GapEscape {
			s.Gaps[i] = uint8(g)
		} else {
			s.Gaps[i] = trace.GapEscape
			big = append(big, uint32(g))
		}
		p = p[n:]
	}
	// The escape columns are sized exactly: resident traces carry no
	// append slack.
	s.BigGaps = exact(big)
	big = big[:0]
	s.Args = make([]uint16, count)
	var prev uint64
	for i := range s.Args {
		var d int64
		if len(p) > 0 && p[0] < 0x80 {
			// Inline zigzag decode of a one-byte varint.
			b := uint64(p[0])
			d = int64(b>>1) ^ -int64(b&1)
			p = p[1:]
		} else {
			var n int
			d, n = binary.Varint(p)
			if n <= 0 {
				return trace.Stream{}, errShort
			}
			p = p[n:]
		}
		// prev stays below 2^32 and |d| <= 2^63, so the wrapped sum
		// lands below 2^32 only when the true sum does.
		prev += uint64(d)
		if prev > 1<<32-1 {
			return trace.Stream{}, fmt.Errorf("store: op %d arg leaves uint32", i)
		}
		if prev < trace.ArgEscape {
			s.Args[i] = uint16(prev)
		} else {
			s.Args[i] = trace.ArgEscape
			big = append(big, uint32(prev))
		}
	}
	if len(p) != 0 {
		return trace.Stream{}, fmt.Errorf("store: %d trailing bytes in section", len(p))
	}
	s.BigArgs = exact(big)
	return s, nil
}

// exact copies v into a new slice of capacity len(v); empty stays nil.
func exact(v []uint32) []uint32 {
	if len(v) == 0 {
		return nil
	}
	out := make([]uint32, len(v))
	copy(out, v)
	return out
}

// uvar reads one unsigned varint, returning the remaining bytes.
func uvar(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errShort
	}
	return v, p[n:], nil
}

// parallelThreshold is the CPU count below which section work stays on
// one goroutine (tiny traces, hostile fuzz inputs).
const parallelThreshold = 4

// encodeEachCPU runs f over every CPU index, fanning out when there is
// enough work to amortize the goroutines.
func encodeEachCPU(n int, f func(cpu int) error) error { return eachCPU(n, f) }

// decodeEachCPU is encodeEachCPU for the decode direction; the section
// table in the header makes per-CPU sections independently parseable.
func decodeEachCPU(n int, f func(cpu int) error) error { return eachCPU(n, f) }

func eachCPU(n int, f func(cpu int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n < parallelThreshold || workers < 2 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
