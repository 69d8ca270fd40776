package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/harness"
)

// ResultFormatVersion identifies the on-disk result encoding. Bump it
// on any change to the file layout below; old files are then ignored
// (their names hash the old version) and recomputed.
const ResultFormatVersion = 1

// resultMagic brands result files, so garbage (or any other framed
// file) dropped into the result directory can never be served as a
// response.
var resultMagic = [4]byte{'D', 'R', 'S', 'R'}

// frameOverhead is a result file's size beyond its body: magic,
// version byte and checksum.
const frameOverhead = len(resultMagic) + 1 + 4

// Frame errors, returned by unframe.
var (
	errShort    = errors.New("serve: truncated result file")
	errChecksum = errors.New("serve: result file checksum mismatch")
	errMagic    = errors.New("serve: bad result file magic")
	errVersion  = errors.New("serve: result format version mismatch")
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ResultKey content-addresses a query's response: the hex SHA-256
// (first 16 bytes) over the query's canonical encoding plus everything
// else that determines the bytes — the result and trace format
// versions, the Record schema, and the build commit. Two processes of
// the same build that receive the same query compute the same key with
// no coordination; a new build (or schema/format bump) orphans old
// entries rather than serving stale bytes.
func ResultKey(q harness.Query, commit string) string {
	h := sha256.New()
	// trace-v1 is the retired trace-file version, kept so stored keys hold.
	fmt.Fprintf(h, "dsm-result\x00v%d\x00trace-v1\x00%s\x00%s\x00%s",
		ResultFormatVersion, harness.RecordSchema, commit, q.Canonical())
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// frame wraps a response body in the result file layout: magic (4
// bytes) | version byte | body | CRC-32C (Castagnoli) of everything
// before it, 4 bytes little-endian.
func frame(body []byte) []byte {
	buf := make([]byte, 0, frameOverhead+len(body))
	buf = append(buf, resultMagic[:]...)
	buf = append(buf, ResultFormatVersion)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// unframe checks data's frame and returns its body, which aliases data.
// The checksum is checked before the header: a file too short to hold
// a frame reports errShort, any other truncation or bit rot
// errChecksum, and an intact frame of another kind or version errMagic
// or errVersion.
func unframe(data []byte) ([]byte, error) {
	if len(data) < frameOverhead {
		return nil, errShort
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, errChecksum
	}
	if [4]byte(body[:4]) != resultMagic {
		return nil, errMagic
	}
	if body[4] != ResultFormatVersion {
		return nil, errVersion
	}
	return body[len(resultMagic)+1:], nil
}

// writeFile installs data at path atomically: it writes a temp file in
// path's directory and renames it into place, so a concurrent reader
// sees either nothing or a complete file.
func writeFile(path string, data []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ResultStore is a directory of memoized query responses, one file per
// result key, named <key>.result. Each file frames the response body
// (see frame) and is written by atomic rename, and any decode failure
// is a silent miss that deletes the offender: corrupt entries
// recompute, they never surface as errors. A nil *ResultStore disables
// persistence (Load always misses, Save does nothing).
type ResultStore struct {
	dir string
}

// OpenResultStore returns a store rooted at dir, creating it if needed.
func OpenResultStore(dir string) (*ResultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &ResultStore{dir: dir}, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (s *ResultStore) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// path returns the file a key materializes at. Keys are produced by
// ResultKey and are plain hex; anything else is rejected by Load/Save
// before touching the filesystem.
func (s *ResultStore) path(key string) string {
	return filepath.Join(s.dir, key+".result")
}

// validKey accepts exactly the shape ResultKey emits: non-empty, all
// lowercase hex. It is the guard that keeps a hostile key ("../...")
// from escaping the store directory.
func validKey(key string) bool {
	if len(key) == 0 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Load returns the stored response body for key, or ok=false on any
// miss. A missing or unreadable file is a plain miss; a corrupt,
// truncated or mis-branded file is a miss that deletes it, so the slot
// recomputes cleanly and the next writer does not race a reader over
// known-bad bytes.
func (s *ResultStore) Load(key string) ([]byte, bool) {
	if s == nil || !validKey(key) {
		return nil, false
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	body, err := unframe(data)
	if err != nil {
		os.Remove(path)
		return nil, false
	}
	return body, true
}

// Save frames the response body and atomically installs it under key.
func (s *ResultStore) Save(key string, body []byte) error {
	if s == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("serve: invalid result key %q", key)
	}
	if err := writeFile(s.path(key), frame(body)); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Len counts the complete result files currently in the store (0 for a
// nil store); a /statusz convenience, not a hot path.
func (s *ResultStore) Len() int {
	if s == nil {
		return 0
	}
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.result"))
	if err != nil {
		return 0
	}
	return len(matches)
}
