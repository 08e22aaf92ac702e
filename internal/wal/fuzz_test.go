package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// wellFormedFrames is the oracle for a segment body (the bytes after its
// magic): the records of the longest run of intact frames from the start,
// and how many bytes that run covers. It parses the slice directly, sharing
// nothing with the reader under test.
func wellFormedFrames(body []byte) (recs []Record, used int) {
	for {
		rest := body[used:]
		if len(rest) < 4 {
			return recs, used
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n < payloadHeader || n > maxFrame || len(rest) < 4+n+4 {
			return recs, used
		}
		payload := rest[4 : 4+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4+n:]) {
			return recs, used
		}
		recs = append(recs, Record{Seq: binary.LittleEndian.Uint64(payload), Type: payload[8], Data: payload[payloadHeader:]})
		used += 4 + n + 4
	}
}

// FuzzSegment opens a journal whose one segment is a valid magic followed by
// arbitrary bytes. Open must never panic, must allocate no more than the
// bytes it was given (plus a fixed allowance for its own bookkeeping) however
// large a length prefix claims to be, must cut the segment exactly after the
// intact frames, and must replay exactly those frames' records. The journal
// must then accept an append that the next Open replays after them.
func FuzzSegment(f *testing.F) {
	frame := func(seq uint64, typ byte, data string) []byte {
		payload := binary.LittleEndian.AppendUint64(nil, seq)
		payload = append(append(payload, typ), data...)
		out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		return binary.LittleEndian.AppendUint32(append(out, payload...), crc32.ChecksumIEEE(payload))
	}
	f.Add([]byte{})
	f.Add(bytes.Join([][]byte{frame(0, 1, "a"), frame(1, 2, "batch"), frame(2, 1, "")}, nil))
	f.Add(append(frame(5, 1, "x"), 0xff, 0xff, 0xff, 0x0f)) // a 256 MiB claim after one frame
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, segName(0))
		if err := os.WriteFile(seg, append([]byte(segMagic), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		var (
			l    *Log
			info RecoverInfo
			err  error
		)
		const allowance = 256 << 10
		alloc := allocatedBy(func() { l, info, err = Open(dir, Options{}) })
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if alloc > uint64(len(body))+allowance {
			t.Fatalf("Open allocated %d bytes for a %d-byte segment body", alloc, len(body))
		}
		want, used := wellFormedFrames(body)
		if info.Records != int64(len(want)) || info.TruncatedBytes != int64(len(body)-used) {
			t.Fatalf("recovered %+v, want %d records and %d bytes cut", info, len(want), len(body)-used)
		}
		if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(len(segMagic)+used) {
			t.Fatalf("segment left at %v bytes (%v), want %d", fi.Size(), err, len(segMagic)+used)
		}
		checkReplay := func(l *Log, want []Record) {
			t.Helper()
			got := collect(t, l)
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		}
		checkReplay(l, want)

		seq, err := l.Commit(7, []byte("after"))
		if err != nil {
			t.Fatalf("Commit after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, _, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l.Close()
		checkReplay(l, append(want, Record{Seq: seq, Type: 7, Data: []byte("after")}))
	})
}
