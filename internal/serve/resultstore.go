package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/framed"
	"repro/internal/harness"
	"repro/internal/trace/store"
)

// ResultFormatVersion identifies the on-disk result encoding. Bump it
// on any change to the file layout below; old files are then ignored
// (their names hash the old version) and recomputed.
const ResultFormatVersion = 1

// resultFormat frames result files. Its magic brands them, so a trace
// file (or garbage) dropped into the result directory can never be
// served as a response.
var resultFormat = framed.Format{'D', 'R', 'S', 'R', ResultFormatVersion}

// ResultKey content-addresses a query's response: the hex SHA-256
// (first 16 bytes) over the query's canonical encoding plus everything
// else that determines the bytes — the result and trace-store format
// versions, the Record schema, and the build commit. Two processes of
// the same build that receive the same query compute the same key with
// no coordination; a new build (or schema/format bump) orphans old
// entries rather than serving stale bytes.
func ResultKey(q harness.Query, commit string) string {
	h := sha256.New()
	fmt.Fprintf(h, "dsm-result\x00v%d\x00trace-v%d\x00%s\x00%s\x00%s",
		ResultFormatVersion, store.FormatVersion, harness.RecordSchema, commit, q.Canonical())
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// ResultStore is a directory of memoized query responses, one file per
// result key, named <key>.result. Each file is an internal/framed
// frame around the response body — the frame the trace store uses,
// under its own magic — written by atomic rename, and any decode
// failure is a silent miss that deletes the offender: corrupt entries
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
// miss — including a corrupt, truncated or mis-branded file, which it
// deletes so the slot recomputes cleanly.
func (s *ResultStore) Load(key string) ([]byte, bool) {
	if s == nil || !validKey(key) {
		return nil, false
	}
	return framed.Load(s.path(key), resultFormat.Open)
}

// Save frames the response body and atomically installs it under key.
func (s *ResultStore) Save(key string, body []byte) error {
	if s == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("serve: invalid result key %q", key)
	}
	data := framed.Seal(append(resultFormat.Begin(len(body)), body...))
	if err := framed.WriteFile(s.path(key), data); err != nil {
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
