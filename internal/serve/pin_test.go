package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
)

// Literal pins of the result store's on-disk identity. They were
// generated once and must not be regenerated for a refactor: a result
// file written by an earlier build stays servable exactly as long as
// its name (ResultKey) and its bytes (the frame around the body) do
// not move. An intended change bumps ResultFormatVersion together with
// these pins.
const (
	// pinBody is the fixed response body the file pin frames.
	pinBody = `[{"schema":"repro-record/v1","app":"radix"}]` + "\n"
	// resultFilePin is the SHA-256 of the .result file Save writes
	// for pinBody.
	resultFilePin = "711cc58c232af4900af88933968a2fe6f0221dccf1043ca1ddbd581b6aa20774"
	// resultKeyPin is ResultKey(pinQuery(), "pin-commit").
	resultKeyPin = "1474a84710d18cc00fcadcabcf27f122"
)

// pinQuery is a fixed query touching every identity field.
func pinQuery() harness.Query {
	return harness.Query{
		Experiment: "fig5",
		Apps:       []string{"radix", "lu"},
		Systems:    []string{"ccnuma", "migrep"},
		Fabric:     "ring",
		Scale:      64,
		Seed:       7,
	}.Normalize()
}

// TestResultKeyPinned: the content address of a fixed query and build
// commit never moves.
func TestResultKeyPinned(t *testing.T) {
	if got := ResultKey(pinQuery(), "pin-commit"); got != resultKeyPin {
		t.Fatalf("ResultKey = %s, want %s", got, resultKeyPin)
	}
}

// TestResultFilePinned: the bytes Save writes for a fixed body never
// move, and a file with exactly those bytes loads back to the body.
func TestResultFilePinned(t *testing.T) {
	dir := t.TempDir()
	rs, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Save(resultKeyPin, []byte(pinBody)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, resultKeyPin+".result"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != resultFilePin {
		t.Fatalf("result file SHA-256 = %s, want %s", got, resultFilePin)
	}
	body, ok := rs.Load(resultKeyPin)
	if !ok || string(body) != pinBody {
		t.Fatalf("pinned file load: ok=%v body=%q", ok, body)
	}
}

// TestResultStoreRejectsTraceFile: an intact frame under another
// magic — here the header of the retired trace files, "DTRC" version
// 1 — copied under a result-key name is a miss that deletes the file,
// so no other file kind is ever served as a response.
func TestResultStoreRejectsTraceFile(t *testing.T) {
	dir := t.TempDir()
	rs, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ResultKey(pinQuery(), "test")
	path := filepath.Join(dir, key+".result")
	if err := os.WriteFile(path, rawFrame("DTRC\x01", "trace payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if body, ok := rs.Load(key); ok {
		t.Fatalf("trace file served as a result (%d bytes)", len(body))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("trace file under a result name not deleted: %v", err)
	}
}
