package matstore

import (
	"encoding/binary"
	"fmt"

	"tahoma/internal/bitset"
)

// The column codec: a column serializes to its row count n and all-valid
// watermark as two little-endian uint64s, then its label words and its
// validity words, ceil(n/64) little-endian uint64s each. The durable
// checkpoint frames and checksums these bytes; DecodeColumn still trusts
// nothing in them.

// columnHeader is the encoded n and prefix.
const columnHeader = 16

// AppendEncoded appends c's encoding to dst and returns the extended slice.
func (c *Column) AppendEncoded(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Len()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.prefix))
	for _, w := range c.labels.Words() {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	for _, w := range c.valid.Words() {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// DecodeColumn parses AppendEncoded's output into a published column. The
// payload must be exactly the size its n implies, checked before anything is
// allocated, and the watermark must not cover an invalid row. The column
// invariants are re-established rather than trusted: bits past n stay zero
// (Count depends on it) and a label is set only where the row is valid
// (Narrow depends on it).
func DecodeColumn(data []byte) (*Column, error) {
	if len(data) < columnHeader || (len(data)-columnHeader)%16 != 0 {
		return nil, fmt.Errorf("matstore: column encoding of %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	prefix := binary.LittleEndian.Uint64(data[8:])
	words := uint64(len(data)-columnHeader) / 16
	if n/64+min(n%64, 1) != words || prefix > n {
		return nil, fmt.Errorf("matstore: column of %d rows (watermark %d) in %d words", n, prefix, words)
	}
	col := &Column{labels: bitset.New(int(n)), valid: bitset.New(int(n)), prefix: int(prefix)}
	lw, vw := col.labels.Words(), col.valid.Words()
	body := data[columnHeader:]
	for i := range lw {
		lw[i] = binary.LittleEndian.Uint64(body[8*i:])
		vw[i] = binary.LittleEndian.Uint64(body[8*(len(lw)+i):])
	}
	if n%64 != 0 {
		mask := uint64(1)<<(n%64) - 1
		lw[len(lw)-1] &= mask
		vw[len(vw)-1] &= mask
	}
	for i := range lw {
		lw[i] &= vw[i]
	}
	full, part := prefix/64, prefix%64
	for _, w := range vw[:full] {
		if w != ^uint64(0) {
			return nil, fmt.Errorf("matstore: column watermark %d covers invalid rows", prefix)
		}
	}
	if mask := uint64(1)<<part - 1; part != 0 && vw[full]&mask != mask {
		return nil, fmt.Errorf("matstore: column watermark %d covers invalid rows", prefix)
	}
	return col.freeze(), nil
}

// Restore installs a recovered column set in place of the resident one and
// bumps the generation, as Invalidate does: labels computed against the
// replaced set are refused at publication. Every column must be a published
// one (DecodeColumn's output). Usage and counters are untouched.
func (s *Store) Restore(cols Columns) {
	s.gen++
	s.cols = cols
}
