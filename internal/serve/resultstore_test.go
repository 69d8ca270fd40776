package serve

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// rawFrame builds a checksummed frame by hand: header (magic and
// version byte), then body, then the CRC-32C of both.
func rawFrame(header, body string) []byte {
	buf := []byte(header + body)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// TestResultFrame: a frame round-trips its body, and each way a file
// can be wrong maps to its error.
func TestResultFrame(t *testing.T) {
	good := frame([]byte("payload"))
	if len(good) != frameOverhead+len("payload") || cap(good) != len(good) {
		t.Fatalf("frame len %d cap %d, want both %d", len(good), cap(good), frameOverhead+len("payload"))
	}
	if p, err := unframe(good); err != nil || string(p) != "payload" {
		t.Fatalf("unframe = %q, %v", p, err)
	}
	flipped := append([]byte(nil), good...)
	flipped[6] ^= 1
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short", good[:frameOverhead-1], errShort},
		{"truncated", good[:len(good)-1], errChecksum},
		{"bit rot", flipped, errChecksum},
		{"other magic", rawFrame("OTHR\x01", "payload"), errMagic},
		{"other version", rawFrame("DRSR\x02", "payload"), errVersion},
	}
	for _, c := range cases {
		if _, err := unframe(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestResultWriteFile: an atomic write leaves exactly the target file
// and no temp file, and a write into a missing directory fails.
func TestResultWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry")
	if err := writeFile(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("directory holds %v, want only the entry", names)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "v1" {
		t.Fatalf("read back %q, %v", data, err)
	}
	if err := writeFile(filepath.Join(dir, "no-such-dir", "entry"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
