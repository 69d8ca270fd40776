package store

import "repro/internal/framed"

// Reseal recomputes the trailing checksum over data's body — a test
// helper for building deliberately malformed-but-checksummed inputs,
// so tests reach the structural validation behind the CRC gate.
func Reseal(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	return framed.Seal(data[:len(data)-4])
}
