package framed

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var testFormat = Format{'T', 'E', 'S', 'T', 3}

func frame(f Format, payload string) []byte {
	return Seal(append(f.Begin(len(payload)), payload...))
}

// TestOpen: a frame round-trips its payload, and each way a file can
// be wrong maps to its error.
func TestOpen(t *testing.T) {
	good := frame(testFormat, "payload")
	if len(good) != overhead+len("payload") || cap(good) != len(good) {
		t.Fatalf("frame len %d cap %d, want both %d", len(good), cap(good), overhead+len("payload"))
	}
	if p, err := testFormat.Open(good); err != nil || string(p) != "payload" {
		t.Fatalf("Open = %q, %v", p, err)
	}
	flipped := append([]byte(nil), good...)
	flipped[6] ^= 1
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short", good[:overhead-1], errShort},
		{"truncated", good[:len(good)-1], errChecksum},
		{"bit rot", flipped, errChecksum},
		{"other magic", frame(Format{'O', 'T', 'H', 'R', 3}, "payload"), errMagic},
		{"other version", frame(Format{'T', 'E', 'S', 'T', 4}, "payload"), errVersion},
	}
	for _, c := range cases {
		if _, err := testFormat.Open(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestWriteFileLoad: an atomic write leaves exactly the target file,
// Load hands its bytes to decode, and a decode failure deletes it.
func TestWriteFileLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry")
	if err := WriteFile(path, frame(testFormat, "v1")); err != nil {
		t.Fatal(err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("directory holds %v, want only the entry", names)
	}
	v, ok := Load(path, testFormat.Open)
	if !ok || string(v) != "v1" {
		t.Fatalf("Load = %q, %v", v, ok)
	}
	if _, ok := Load(path, Format{'O', 'T', 'H', 'R', 3}.Open); ok {
		t.Fatal("foreign frame loaded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("rejected file not deleted: %v", err)
	}
	if _, ok := Load(path, testFormat.Open); ok {
		t.Fatal("missing file loaded")
	}
	if err := WriteFile(filepath.Join(dir, "no-such-dir", "entry"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
