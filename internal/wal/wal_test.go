package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"tahoma/internal/faults"
)

// collect replays the whole journal into a slice.
func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if _, err := l.Replay(0, func(r Record) error {
		out = append(out, Record{Seq: r.Seq, Type: r.Type, Data: append([]byte(nil), r.Data...)})
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.TruncatedBytes != 0 {
		t.Fatalf("fresh journal recovered %+v", info)
	}
	var want []Record
	for i := 0; i < 50; i++ {
		data := []byte(fmt.Sprintf("record-%03d", i))
		seq, err := l.Commit(byte(i%3), data)
		if err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Commit %d returned seq %d", i, seq)
		}
		want = append(want, Record{Seq: seq, Type: byte(i % 3), Data: data})
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything survives, sequence numbering continues.
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != 50 || info.TruncatedBytes != 0 || info.NextSeq != 50 {
		t.Fatalf("reopen recovered %+v", info)
	}
	if seq, err := l2.Commit(9, []byte("after")); err != nil || seq != 50 {
		t.Fatalf("post-reopen Commit = (%d, %v)", seq, err)
	}
	if got := collect(t, l2); len(got) != 51 {
		t.Fatalf("replayed %d records after reopen-append", len(got))
	}
}

func TestReplayFromSeq(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Commit(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var seqs []uint64
	n, err := l.Replay(6, func(r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(seqs) != 4 || seqs[0] != 6 || seqs[3] != 9 {
		t.Fatalf("Replay(6) = %d records %v", n, seqs)
	}
}

func TestAppendBuffersUntilSync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("lazy")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("rides-next-commit")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(2, []byte("commit")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != 3 {
		t.Fatalf("recovered %d records, want 3 (append must drain before a later commit)", info.Records)
	}
}

func TestSegmentRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record should land in its own segment or nearly so.
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Commit(1, bytes.Repeat([]byte{byte(i)}, 48)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to create several segments, got %d", st.Segments)
	}
	// GC everything below seq 15: records 15..19 must survive.
	if _, err := l.TruncateBefore(15); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l)
	if len(got) == 0 || got[len(got)-1].Seq != 19 {
		t.Fatalf("post-GC tail = %+v", got)
	}
	// Records below 15 may survive only if they share a segment with a kept
	// record; record 15 itself must never be deleted.
	if got[0].Seq > 15 {
		t.Fatalf("GC deleted records >= 15: first surviving seq %d", got[0].Seq)
	}
	l.Close()

	// Reopen after GC: numbering continues from 20.
	l2, info, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.NextSeq != 20 {
		t.Fatalf("NextSeq after GC+reopen = %d, want 20", info.NextSeq)
	}
}

// TestTruncationAtEveryOffsetYieldsPrefix is the core durability property:
// however the tail of the journal is damaged — cut at ANY byte offset —
// recovery yields exactly a prefix of the committed records, never a
// reordering, never a gap, never a partial record.
func TestTruncationAtEveryOffsetYieldsPrefix(t *testing.T) {
	master := t.TempDir()
	l, _, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := l.Commit(byte(i), []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := listSegments(master)
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected 1 segment, got %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(filepath.Join(master, segs[0].name))
	if err != nil {
		t.Fatal(err)
	}

	step := 1
	if testing.Short() {
		step = 7
	}
	for off := 0; off <= len(raw); off += step {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segs[0].name), raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, info, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		recs := collect(t, l2)
		for i, r := range recs {
			if r.Seq != uint64(i) {
				t.Fatalf("offset %d: record %d has seq %d — not a prefix", off, i, r.Seq)
			}
			if want := fmt.Sprintf("payload-%02d", i); string(r.Data) != want {
				t.Fatalf("offset %d: record %d data %q, want %q", off, i, r.Data, want)
			}
		}
		if int64(len(recs)) != info.Records {
			t.Fatalf("offset %d: Open reported %d records, replay saw %d", off, info.Records, len(recs))
		}
		// After recovery the journal must accept appends at the right seq.
		if seq, err := l2.Commit(7, []byte("post")); err != nil || seq != uint64(len(recs)) {
			t.Fatalf("offset %d: post-recovery Commit = (%d, %v), want seq %d", off, seq, err, len(recs))
		}
		l2.Close()
	}
}

// TestCorruptMiddleFrameTruncates flips a byte inside an early frame: the
// reader must truncate there, keeping only the records before it.
func TestCorruptMiddleFrameTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Commit(1, []byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte roughly 40% in — inside some middle frame's payload.
	raw[len(segMagic)+2*len(raw)/5] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.TruncatedBytes == 0 {
		t.Fatal("corruption not detected")
	}
	recs := collect(t, l2)
	if len(recs) >= 10 || len(recs) == 0 {
		t.Fatalf("recovered %d records after mid-file corruption", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d — not a prefix", i, r.Seq)
		}
	}
}

// TestFrameLengthPastSegmentEndAllocatesNothing: a frame whose length claims
// more bytes than its segment has left — here the largest length a frame may
// have, in a segment of a few hundred bytes — is torn tail, refused before
// its payload is allocated.
func TestFrameLengthPastSegmentEndAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Commit(1, []byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := len(segMagic) + frameOverhead + payloadHeader + len("frame-0")
	binary.LittleEndian.PutUint32(raw[second:], maxFrame)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var (
		ok   bool
		info RecoverInfo
	)
	alloc := allocatedBy(func() { _, _, ok = splitRecord(raw[second:]) })
	if ok || alloc > 64<<10 {
		t.Fatalf("splitRecord accepted=%v, allocated %d bytes for a %d-byte segment", ok, alloc, len(raw))
	}
	alloc = allocatedBy(func() {
		var l2 *Log
		if l2, info, err = Open(dir, Options{}); err == nil {
			l2.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1 || info.TruncatedBytes == 0 || alloc > 1<<20 {
		t.Fatalf("recovered %+v, allocating %d bytes; want the first record and the rest cut", info, alloc)
	}
}

// allocatedBy returns the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestTornSegmentOrphansLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Commit(1, bytes.Repeat([]byte{byte(i)}, 60)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Tear the second segment: every later segment is unreachable history and
	// must be dropped, or replay would show a gap.
	mid := filepath.Join(dir, segs[1].name)
	fi, _ := os.Stat(mid)
	if err := os.Truncate(mid, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.TruncatedBytes == 0 {
		t.Fatal("torn segment not detected")
	}
	recs := collect(t, l2)
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d — gap after torn segment", i, r.Seq)
		}
	}
	if left, _ := listSegments(dir); len(left) >= len(segs) {
		t.Fatalf("orphaned segments not removed: %d -> %d", len(segs), len(left))
	}
}

func TestReplayErrTruncate(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := l.Commit(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The callback rejects record 5: the journal must be cut there.
	n, err := l.Replay(0, func(r Record) error {
		if r.Seq == 5 {
			return ErrTruncate
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay with ErrTruncate: %v", err)
	}
	if n != 5 {
		t.Fatalf("replayed %d records before truncate, want 5", n)
	}
	if got := collect(t, l); len(got) != 5 {
		t.Fatalf("journal holds %d records after truncate, want 5", len(got))
	}
	// Appends continue from the cut point, and the reused sequence numbers
	// are synced afresh: the cut records' fsync does not vouch for them.
	before := l.Stats().Commits
	if seq, err := l.Commit(2, []byte("anew")); err != nil || seq != 5 {
		t.Fatalf("post-truncate Commit = (%d, %v), want seq 5", seq, err)
	}
	if got := l.Stats().Commits - before; got != 1 {
		t.Fatalf("post-truncate Commit issued %d fsyncs, want 1", got)
	}
	l.Close()
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != 6 || info.NextSeq != 6 {
		t.Fatalf("reopen after ErrTruncate: %+v", info)
	}
}

func TestFaultWALWriteErrorFailStops(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Commit(1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	if err := faults.Enable(faults.FSWriteError, faults.Spec{Err: boom, Times: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(1, []byte("doomed")); !errors.Is(err, boom) {
		t.Fatalf("Commit under write fault = %v, want %v", err, boom)
	}
	// Fail-stop: the fault is exhausted but the journal must refuse further
	// appends — a later success would leave a gap over the failed record.
	if _, err := l.Commit(1, []byte("after")); err == nil {
		t.Fatal("journal accepted an append after a write failure")
	}
	// The committed prefix is intact.
	l3, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if info.Records != 1 {
		t.Fatalf("recovered %d records, want the 1 acked commit", info.Records)
	}
}

func TestFaultWALShortWriteTruncatesOnReopen(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Commit(1, []byte(fmt.Sprintf("ok-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := faults.Enable(faults.FSShortWrite, faults.Spec{Times: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(1, []byte("torn")); err == nil {
		t.Fatal("short write did not error")
	}
	l.Close()
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.TruncatedBytes == 0 {
		t.Fatal("torn frame left no truncated bytes")
	}
	recs := collect(t, l2)
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want the 3 acked", len(recs))
	}
	if info.NextSeq != 3 {
		t.Fatalf("NextSeq = %d, want 3", info.NextSeq)
	}
}

func TestFaultWALSyncError(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := faults.Enable(faults.FSSyncError, faults.Spec{Times: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(1, []byte("unsynced")); err == nil {
		t.Fatal("Commit under sync fault returned nil")
	}
	if _, err := l.Commit(1, []byte("after")); err == nil {
		t.Fatal("journal accepted an append after a sync failure")
	}
}

// TestWriteFileReplacesAtomically: a failing callback, an injected write
// error and an injected fsync error each leave the old file byte-identical
// and no temp file behind; a write that succeeds replaces the file.
func TestWriteFileReplacesAtomically(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	old := []byte("old contents")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	write := func(w io.Writer) error {
		_, err := w.Write([]byte("new contents"))
		return err
	}
	check := func(t *testing.T, want []byte) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("file holds %q (%v), want %q", got, err, want)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("directory holds %v (%v), want the file alone", entries, err)
		}
	}
	for _, tc := range []struct {
		name  string
		point string
		write func(io.Writer) error
	}{
		{"failing callback", "", func(w io.Writer) error {
			if err := write(w); err != nil {
				return err
			}
			return boom
		}},
		{"write error", faults.FSWriteError, write},
		{"sync error", faults.FSSyncError, write},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faults.Reset()
			if tc.point != "" {
				if err := faults.Enable(tc.point, faults.Spec{Err: boom, Times: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if err := WriteFile(path, tc.write); !errors.Is(err, boom) {
				t.Fatalf("WriteFile = %v, want %v", err, boom)
			}
			check(t, old)
		})
	}
	if err := WriteFile(path, write); err != nil {
		t.Fatal(err)
	}
	check(t, []byte("new contents"))
}

// TestAppendPartsIsOneRecord: a record appended as parts replays as the
// concatenation, indistinguishable from one appended whole, and an oversize
// record is refused without latching the journal.
func TestAppendPartsIsOneRecord(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := bytes.Repeat([]byte{0xAB}, 50_000)
	if _, err := l.AppendParts(7, []byte("head"), nil, big, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(7, append(append([]byte("head"), big...), "tail"...)); err != nil {
		t.Fatal(err)
	}
	half := make([]byte, maxFrame/2) // never touched: the size check comes first
	if _, err := l.AppendParts(7, half, half); err == nil {
		t.Fatal("a record past the frame limit was accepted")
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("journal latched after refusing an oversize record: %v", err)
	}
	got := collect(t, l)
	if len(got) != 2 || got[0].Type != 7 || !bytes.Equal(got[0].Data, got[1].Data) || len(got[0].Data) != 8+len(big) {
		t.Fatalf("parts did not replay as the whole record: %d records", len(got))
	}
}

// TestGroupCommit: writers that append while another's fsync is in flight are
// covered by the next fsync together, so N concurrent commits cost fewer than
// N fsyncs and every one of them is durable when its Sync returns. The fsync
// is slowed through its fault point so the grouping does not depend on the
// disk under the test.
func TestGroupCommit(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.Enable(faults.FSSyncError, faults.Spec{Delay: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := l.Append(1, []byte{byte(w)}); err != nil {
				errs <- err
				return
			}
			errs <- l.Sync()
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Records != writers || st.Commits < 1 || st.Commits >= writers {
		t.Fatalf("%d records took %d fsyncs, want at least 1 and fewer than %d", st.Records, st.Commits, writers)
	}
	// Nothing is left to sync: every writer's record was covered.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Commits; got != st.Commits {
		t.Fatalf("a Sync with nothing new issued an fsync (%d → %d)", st.Commits, got)
	}
	l.Close()
	faults.Reset()
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != writers {
		t.Fatalf("recovered %d records, want %d", info.Records, writers)
	}
}

// TestSegmentTornInItsMagicIsRemoved: a crash while a segment is being created
// leaves a file without its full magic. Open must drop it, not reopen it for
// appending — frames written behind a bad magic read back as all tail, so
// every commit made after such a restart would vanish at the next one.
func TestSegmentTornInItsMagicIsRemoved(t *testing.T) {
	for _, have := range []int{0, 3} { // bytes of magic that reached disk
		for _, earlier := range []int{0, 4} { // records in an earlier, whole segment
			dir := t.TempDir()
			if earlier > 0 {
				l, _, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < earlier; i++ {
					if _, err := l.Commit(1, []byte{byte(i)}); err != nil {
						t.Fatal(err)
					}
				}
				l.Close()
			}
			// The segment rotation was creating: named for the next sequence.
			torn := filepath.Join(dir, segName(uint64(earlier)))
			if err := os.WriteFile(torn, []byte(segMagic[:have]), 0o644); err != nil {
				t.Fatal(err)
			}
			l, info, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(torn); !os.IsNotExist(err) {
				t.Fatalf("magic %d/%d, %d earlier records: torn segment survived Open (%v)", have, len(segMagic), earlier, err)
			}
			if info.Records != int64(earlier) || info.TruncatedBytes != int64(have) {
				t.Fatalf("Open reported %+v, want %d records and %d bytes cut", info, earlier, have)
			}
			if _, err := l.Commit(1, []byte("after")); err != nil {
				t.Fatal(err)
			}
			l.Close()
			l2, info, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			l2.Close()
			if info.Records != int64(earlier)+1 {
				t.Fatalf("magic %d/%d: the commit after the restart was lost: %d records, want %d", have, len(segMagic), info.Records, earlier+1)
			}
		}
	}
}
