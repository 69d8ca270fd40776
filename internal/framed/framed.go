// Package framed is the file framing the repo's on-disk caches share:
// the trace store (internal/trace/store) and the query-result store
// (internal/serve). It owns three things, so the two stores cannot
// drift apart on any of them:
//
//   - the frame: magic (4 bytes) | version byte | payload | CRC-32C
//     (Castagnoli) of everything before it, 4 bytes little-endian;
//   - the atomic write: a temp file in the target directory renamed
//     into place, so a concurrent reader sees either nothing or a
//     complete file;
//   - load-or-delete: a file that fails to decode is a cache miss that
//     removes itself, so a corrupt or truncated entry is rewritten
//     cleanly instead of surfacing as an error.
//
// Each store picks its own magic and version.
package framed

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Format is one store's frame header: its 4-byte magic followed by
// its format-version byte.
type Format [5]byte

// overhead is the frame's size beyond its payload: magic, version byte
// and checksum.
const overhead = len(Format{}) + 4

// Frame errors, returned by Format.Open. They carry no package prefix,
// so a store that reports them wraps them under its own name.
var (
	errShort    = errors.New("truncated file")
	errChecksum = errors.New("checksum mismatch")
	errMagic    = errors.New("bad magic")
	errVersion  = errors.New("format version mismatch")
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Begin starts a frame with room for n payload bytes: the header is
// written, the caller appends the payload, and Seal finishes it.
func (f Format) Begin(n int) []byte {
	buf := make([]byte, 0, overhead+n)
	return append(buf, f[:]...)
}

// Seal appends the checksum of everything in buf, finishing a frame
// started with Begin.
func Seal(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// Open checks data's frame and returns its payload, which aliases data.
// The checksum is checked before the header: a file too short to hold
// a frame reports errShort, any other truncation or bit rot
// errChecksum, and an intact frame of another store or version
// errMagic or errVersion.
func (f Format) Open(data []byte) ([]byte, error) {
	if len(data) < overhead {
		return nil, errShort
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, errChecksum
	}
	if [4]byte(body[:4]) != [4]byte(f[:4]) {
		return nil, errMagic
	}
	if body[4] != f[4] {
		return nil, errVersion
	}
	return body[len(f):], nil
}

// WriteFile installs data at path atomically: it writes a temp file in
// path's directory and renames it into place.
func WriteFile(path string, data []byte) (err error) {
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

// Load reads the file at path and decodes it. A missing or unreadable
// file is a miss; a file decode rejects is a miss that deletes it, so
// the next writer does not race a reader over known-bad bytes.
func Load[T any](path string, decode func(data []byte) (T, error)) (T, bool) {
	var zero T
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, false
	}
	v, err := decode(data)
	if err != nil {
		os.Remove(path)
		return zero, false
	}
	return v, true
}
