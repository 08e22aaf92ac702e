// Package wal is TAHOMA's write-ahead ingest journal: an append-only,
// length+CRC32-framed, fsync-on-commit log that makes the DB's write side
// (Append batches and materialized-label merges) durable. Where the DB's
// checkpoint makes a *load* fail closed on any damage, the WAL makes a
// *crash* recover open: the reader walks the journal, truncates at the first
// bad frame (a torn tail is what power loss legitimately produces), and
// replays the clean prefix, so a process killed at any instant restarts into
// a state bit-identical to some prefix of the acknowledged writes — never
// corrupt, never partially applied.
//
// On-disk layout of a journal directory (the checkpoint file written by the
// DB lives alongside, owned by the vdb layer):
//
//	wal-%016x.seg — segments, named by the sequence number of their first
//	                record; each starts with the magic "TAHWAL1\n" and holds
//	                frames [len u32][payload][crc32 u32] where payload is
//	                [seq u64][type u8][data].
//
// Append writes a frame without forcing it to disk; Sync fsyncs; Commit is
// Append+Sync — the acknowledged-write path. Records whose loss only costs
// recomputation (label-merge journal entries) ride Append and become durable
// with the next Commit or Sync, in order, because frames are written
// sequentially.
//
// Commits group: one fsync runs at a time, outside the log's lock, so other
// writers keep appending while it does; the log tracks the sequence below
// which everything is durable, and a Sync whose records a concurrent fsync
// already covered returns without issuing another.
//
// Segment rotation bounds recovery work and makes checkpoint garbage
// collection a file delete: TruncateBefore(seq) removes whole segments whose
// records all predate the newest checkpoint.
//
// The package is also the one place that knows how TAHOMA commits a file.
// The frame (WriteFrame, SplitFrame) frames the DB's checkpoint sections as
// it frames journal records, and WriteFile — temp file, fsync, rename,
// directory fsync — is how the checkpoint and the representation store's
// manifest are replaced.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tahoma/internal/faults"
)

const (
	segMagic = "TAHWAL1\n"
	// segPrefix/segSuffix frame the %016x first-sequence in segment names.
	segPrefix = "wal-"
	segSuffix = ".seg"
	// maxFrame bounds one record. Recovery refuses a longer frame, and
	// also any frame longer than the bytes left in its segment.
	maxFrame = 1 << 28
	// maxKeptFrame bounds the assembly buffer the log keeps between appends.
	maxKeptFrame = 4 << 20
	// frameOverhead is the per-frame framing cost: length and CRC32 words.
	frameOverhead = 8
	// payloadHeader is seq (8) + type (1).
	payloadHeader = 9
)

var crcTable = crc32.IEEETable

// ErrTruncate, returned from a Replay callback, stops the replay and
// truncates the journal at the offending record — the escape hatch for a
// record that is internally valid but inconsistent with recovered state
// (e.g. an append whose frames never reached the representation store).
// Everything from that record on is discarded, so subsequent appends extend a
// consistent prefix.
var ErrTruncate = errors.New("wal: truncate journal here")

// Options configure a Log.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the current one exceeds
	// this size (0 = 8 MiB). Rotation happens at record boundaries.
	SegmentBytes int64
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 8 << 20
	}
	return o.SegmentBytes
}

// Record is one journal entry as seen by Replay.
type Record struct {
	Seq  uint64
	Type byte
	Data []byte
}

// RecoverInfo reports what Open found and fixed.
type RecoverInfo struct {
	// Segments and Records count the valid journal contents.
	Segments int
	Records  int64
	// TruncatedBytes is how much torn tail Open cut: bytes after the last
	// valid frame (a partially written frame, a bad checksum, or segments
	// orphaned past a torn one).
	TruncatedBytes int64
	// NextSeq is the sequence number the next appended record will carry.
	NextSeq uint64
}

// Stats is a point-in-time accounting snapshot.
type Stats struct {
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Records counts appends since Open; Commits counts fsyncs.
	Records int64 `json:"records"`
	Commits int64 `json:"commits"`
}

// Log is an open journal. Safe for concurrent use; Append order is the
// replay order.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	segStart uint64 // first seq in the current segment
	segSize  int64  // bytes written to the current segment (including magic)
	nextSeq  uint64
	records  int64
	commits  int64
	frame    []byte // frame assembly buffer, reused across appends
	// Group commit. One fsync runs at a time, outside mu (syncing is set and
	// syncDone signalled around it), so appends proceed meanwhile; every
	// record with Seq < synced is durable.
	syncing  bool
	syncDone *sync.Cond
	synced   uint64
	// failed latches the first write/sync error: once the journal cannot
	// guarantee durability it refuses further appends instead of silently
	// losing acknowledged writes.
	failed error
}

// Open opens (creating if necessary) the journal in dir, repairs any torn
// tail — truncating at the first bad frame and deleting segments beyond it —
// and positions the log for appending.
func Open(dir string, opts Options) (*Log, RecoverInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 0}
	l.syncDone = sync.NewCond(&l.mu)
	var info RecoverInfo

	// Walk segments in order, validating frames. The first damage truncates
	// its segment there and deletes every later segment: a torn frame means
	// the crash happened while writing it, so nothing after it was ever
	// acknowledged.
	for i, seg := range segs {
		body, total, intact, err := loadSegment(filepath.Join(dir, seg.name))
		if err != nil {
			return nil, RecoverInfo{}, err
		}
		l.nextSeq = max(l.nextSeq, seg.start)
		for rec, rest, ok := splitRecord(body); intact && ok; rec, rest, ok = splitRecord(rest) {
			l.nextSeq = rec.Seq + 1
			info.Records++
			body = rest
		}
		if valid := total - int64(len(body)); valid < total || valid == 0 {
			// valid == 0 is a segment without its magic — the crash hit while
			// it was being created. It goes entirely: appending to a file the
			// next Open would read as all tail would lose those appends.
			keep := i
			if valid > 0 {
				keep = i + 1
				info.TruncatedBytes += total - valid
				if err := os.Truncate(filepath.Join(dir, seg.name), valid); err != nil {
					return nil, RecoverInfo{}, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.name, err)
				}
			}
			for _, later := range segs[keep:] {
				p := filepath.Join(dir, later.name)
				if fi, err := os.Stat(p); err == nil {
					info.TruncatedBytes += fi.Size()
				}
				if err := os.Remove(p); err != nil {
					return nil, RecoverInfo{}, fmt.Errorf("wal: removing orphaned segment %s: %w", later.name, err)
				}
			}
			segs = segs[:keep]
			break
		}
	}
	info.Segments = len(segs)
	info.NextSeq = l.nextSeq
	l.synced = l.nextSeq // what survived to be read is all there is to sync

	// Reopen the last segment for appending, or lazily create the first on
	// the first Append (an empty journal stays an empty directory).
	if len(segs) > 0 {
		if err := l.reopen(segs[len(segs)-1], l.nextSeq); err != nil {
			return nil, RecoverInfo{}, err
		}
	}
	return l, info, nil
}

// reopen positions the log to append to seg, the journal's tail segment,
// with nextSeq the sequence number its next record carries. Every record
// below nextSeq is on disk, read back by whoever found the tail.
func (l *Log) reopen(seg segment, nextSeq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, seg.name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening %s: %w", seg.name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: reopening %s: %w", seg.name, err)
	}
	l.f, l.segStart, l.segSize = f, seg.start, fi.Size()
	l.nextSeq, l.synced = nextSeq, nextSeq
	return nil
}

type segment struct {
	name  string
	start uint64
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var start uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), "%016x", &start); err != nil {
			return nil, fmt.Errorf("wal: unparseable segment name %q", name)
		}
		segs = append(segs, segment{name: name, start: start})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

func segName(start uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix)
}

// loadSegment reads the segment at path whole. body is what follows its
// magic; intact is false, and body the whole file, when the magic is
// missing or torn: a segment the crash hit while it was being created, all
// of it tail.
func loadSegment(path string) (body []byte, total int64, intact bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	body, intact = bytes.CutPrefix(data, []byte(segMagic))
	return body, int64(len(data)), intact, nil
}

// splitRecord takes one journal record off the front of a segment body: a
// frame whose payload holds the record header and at most maxFrame bytes.
// ok is false on any damage — truncation, a length the bytes left cannot
// back, a checksum mismatch, a runt or oversize payload. The record's data
// aliases body.
func splitRecord(body []byte) (rec Record, rest []byte, ok bool) {
	payload, rest, err := SplitFrame(body)
	if err != nil || len(payload) < payloadHeader || len(payload) > maxFrame {
		return Record{}, nil, false
	}
	return Record{
		Seq:  binary.LittleEndian.Uint64(payload),
		Type: payload[8],
		Data: payload[payloadHeader:],
	}, rest, true
}

// NextSeq returns the sequence number the next appended record will carry.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Err returns the latched failure, if any. A failed journal refuses every
// further append (fail-stop), so callers can check Err before mutating state
// they would otherwise be unable to journal.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Append journals one record without forcing it to disk: it is durable after
// the next Sync/Commit (appends drain in order, so a later Commit covers it).
// Use for records whose loss is recomputable; acknowledged writes go through
// Commit, or Append followed by Sync.
func (l *Log) Append(typ byte, data []byte) (seq uint64, err error) {
	return l.AppendParts(typ, data)
}

// AppendParts is Append for a record whose data is the concatenation of
// parts: each part is copied once, straight into the frame, so a caller
// holding a small header and a large body it does not own (an ingest batch's
// image records) never builds the joined payload.
func (l *Log) AppendParts(typ byte, parts ...[]byte) (seq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(typ, parts)
}

// Commit journals one record and fsyncs the segment: when it returns nil the
// record — and every record appended before it — is durable.
func (l *Log) Commit(typ byte, data []byte) (seq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, err = l.appendLocked(typ, [][]byte{data})
	if err != nil {
		return 0, err
	}
	if err := l.syncLocked(seq + 1); err != nil {
		return 0, err
	}
	return seq, nil
}

// Sync makes every record appended so far durable. It issues an fsync only
// when one is needed: records a concurrent Sync's fsync already covered are
// not synced again (group commit).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(l.nextSeq)
}

func (l *Log) appendLocked(typ byte, parts [][]byte) (uint64, error) {
	// Rotation closes the file an in-flight fsync is using: wait it out.
	for l.failed == nil && (l.f == nil || l.segSize >= l.opts.segmentBytes()) {
		if l.syncing {
			l.syncDone.Wait()
			continue
		}
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if l.failed != nil {
		return 0, l.failed
	}
	n := payloadHeader
	for _, p := range parts {
		n += len(p)
	}
	if n > maxFrame {
		// Refused, not latched: nothing was written, and a frame this size
		// would read back as a torn tail.
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame limit", n, maxFrame)
	}
	seq := l.nextSeq
	frame := append(l.frame[:0], 0, 0, 0, 0) // the length word, filled in by sealFrame
	frame = binary.LittleEndian.AppendUint64(frame, seq)
	frame = append(frame, typ)
	for _, p := range parts {
		frame = append(frame, p...)
	}
	frame = sealFrame(frame)
	if cap(frame) <= maxKeptFrame {
		l.frame = frame
	}

	// Fault points: a failed write latches the journal into fail-stop — the
	// record was not acknowledged and later records must not leapfrog it. A
	// short write additionally leaves a torn frame on disk, which the next
	// Open truncates.
	if err := faults.Fire(faults.FSWriteError); err != nil {
		return 0, l.failLocked(fmt.Errorf("wal: append: %w", err))
	}
	if faults.Firing(faults.FSShortWrite) {
		_, _ = l.f.Write(frame[:len(frame)/2])
		return 0, l.failLocked(errors.New("wal: append: short write (injected)"))
	}
	if _, err := l.f.Write(frame); err != nil {
		return 0, l.failLocked(fmt.Errorf("wal: append: %w", err))
	}
	l.segSize += int64(len(frame))
	l.nextSeq = seq + 1
	l.records++
	return seq, nil
}

// failLocked latches err as the journal's fail-stop state and wakes anyone
// waiting on an fsync that will now never cover them.
func (l *Log) failLocked(err error) error {
	l.failed = err
	l.syncDone.Broadcast()
	return l.failed
}

// syncLocked returns once every record with Seq < target is durable. Called
// with mu held; the fsync itself runs with mu released, so appends (and the
// Syncs queueing behind this one) proceed while the disk works. Whoever finds
// no fsync in flight issues the next one, which covers everything appended
// up to that moment — its own records and every waiter's.
func (l *Log) syncLocked(target uint64) error {
	for {
		if l.failed != nil {
			return l.failed
		}
		if l.synced >= target || l.f == nil {
			return nil
		}
		if !l.syncing {
			break
		}
		l.syncDone.Wait()
	}
	l.syncing = true
	f, upto := l.f, l.nextSeq
	l.mu.Unlock()
	err := syncFile(f)
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		return l.failLocked(fmt.Errorf("wal: sync: %w", err))
	}
	l.synced = upto
	l.commits++
	l.syncDone.Broadcast()
	return nil
}

// syncFile is the one journal fsync, bracketed by its fault points.
func syncFile(f *os.File) error {
	// The crash points bracket the fsync: before-sync is the strictest crash
	// (written frames may or may not have reached disk, whole or torn);
	// after-sync guarantees the commit survived. Both are subprocess-only
	// chaos hooks — they kill the process by design.
	if faults.Firing(faults.FSCrashBeforeSync) {
		os.Exit(3)
	}
	if err := faults.Fire(faults.FSSyncError); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if faults.Firing(faults.FSCrashAfterSync) {
		os.Exit(3)
	}
	return nil
}

// rotateLocked closes the current segment (fsynced) and starts a fresh one,
// fsyncing the directory so the new segment's name survives a crash. The
// caller has made sure no fsync is in flight.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return l.failLocked(fmt.Errorf("wal: rotating: %w", err))
		}
		l.synced = l.nextSeq
		if err := l.f.Close(); err != nil {
			return l.failLocked(fmt.Errorf("wal: rotating: %w", err))
		}
		l.f = nil
	}
	name := segName(l.nextSeq)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return l.failLocked(fmt.Errorf("wal: creating segment %s: %w", name, err))
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return l.failLocked(fmt.Errorf("wal: writing segment magic: %w", err))
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return l.failLocked(fmt.Errorf("wal: creating segment %s: %w", name, err))
	}
	l.f = f
	l.segStart = l.nextSeq
	l.segSize = int64(len(segMagic))
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFrame writes payload to w as one frame: its length (u32), the
// payload itself, not copied, and its CRC32 (u32), little-endian — the
// framing of journal records and of the checkpoint's sections.
func WriteFrame(w io.Writer, payload []byte) error {
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], uint32(len(payload)))
	if _, err := w.Write(word[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(word[:], crc32.Checksum(payload, crcTable))
	_, err := w.Write(word[:])
	return err
}

// sealFrame completes a frame assembled in place — four bytes reserved for
// the length, then the payload — by filling in the length and appending the
// checksum: the bytes WriteFrame writes, in one buffer.
func sealFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame[4:], crcTable))
}

// SplitFrame takes one frame off the front of data. The frame's length is
// bounded by the bytes data holds, and its payload aliases data, so a damaged
// length can drive no allocation.
func SplitFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameOverhead {
		return nil, nil, errors.New("truncated")
	}
	n := uint64(binary.LittleEndian.Uint32(data))
	if n > uint64(len(data)-frameOverhead) {
		return nil, nil, fmt.Errorf("%d-byte frame with %d bytes left — truncated or corrupt", n, len(data)-frameOverhead)
	}
	payload, rest = data[4:4+n], data[frameOverhead+n:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[4+n:]) {
		return nil, nil, errors.New("checksum mismatch — file is corrupt")
	}
	return payload, rest, nil
}

// WriteFile replaces the file at path with the bytes write writes, so that
// a reader, or a restart after a crash at any instant, finds either the old
// file or the whole new one: the bytes go, buffered, to a temp file beside
// path, which is fsynced, renamed over path, and made durable by an fsync of
// the directory. Without the fsyncs a crash could surface an empty or
// garbage file, the rename reaching disk before the contents. On a failure
// before the rename the temp file is removed and path keeps its old bytes.
// The fs.write-error and fs.sync-error fault points fail the write and the
// fsync.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: replacing %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
			err = fmt.Errorf("wal: replacing %s: %w", path, err)
		}
	}()
	if err := faults.Fire(faults.FSWriteError); err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := faults.Fire(faults.FSSyncError); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// Replay streams every record with Seq >= fromSeq, in order, to fn. A fn
// error aborts the replay; returning ErrTruncate additionally truncates the
// journal at that record (see ErrTruncate) and ends the replay cleanly.
// Replay reads the files as repaired by Open; call it before appending.
// A record's Data stays valid after fn returns.
func (l *Log) Replay(fromSeq uint64, fn func(Record) error) (replayed int64, err error) {
	l.mu.Lock()
	segs, err := listSegments(l.dir)
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	for i, seg := range segs {
		body, total, intact, err := loadSegment(filepath.Join(l.dir, seg.name))
		if err != nil {
			return replayed, err
		}
		next := seg.start // the seq appends resume at if the journal is cut at rec
		for rec, rest, ok := splitRecord(body); intact && ok; rec, rest, ok = splitRecord(rest) {
			if rec.Seq >= fromSeq {
				if err := fn(rec); err != nil {
					if errors.Is(err, ErrTruncate) {
						return replayed, l.truncateAt(seg, total-int64(len(body)), next, segs[i+1:])
					}
					return replayed, err
				}
				replayed++
			}
			next = rec.Seq + 1
			body = rest
		}
	}
	return replayed, nil
}

// truncateAt cuts the journal at byte offset off of segment seg, removes
// the later segments, and reopens seg for appending at nextSeq.
func (l *Log) truncateAt(seg segment, off int64, nextSeq uint64, later []segment) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	if err := os.Truncate(filepath.Join(l.dir, seg.name), off); err != nil {
		return fmt.Errorf("wal: truncating %s: %w", seg.name, err)
	}
	for _, s := range later {
		if err := os.Remove(filepath.Join(l.dir, s.name)); err != nil {
			return fmt.Errorf("wal: removing %s: %w", s.name, err)
		}
	}
	// The cut records' sequence numbers will be reused.
	return l.reopen(seg, nextSeq)
}

// TruncateBefore garbage-collects segments made obsolete by a checkpoint:
// every segment whose records all have Seq < seq is deleted (the current
// write segment is always kept). Returns the bytes reclaimed.
func (l *Log) TruncateBefore(seq uint64) (reclaimed int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	for i, seg := range segs {
		// A segment's records are all < seq iff the next segment starts at or
		// below seq. The last segment (the write head) is never deleted.
		if i+1 >= len(segs) || segs[i+1].start > seq || seg.start == l.segStart {
			break
		}
		p := filepath.Join(l.dir, seg.name)
		if fi, err := os.Stat(p); err == nil {
			reclaimed += fi.Size()
		}
		if err := os.Remove(p); err != nil {
			return reclaimed, fmt.Errorf("wal: removing %s: %w", seg.name, err)
		}
	}
	if reclaimed > 0 {
		if err := syncDir(l.dir); err != nil {
			return reclaimed, fmt.Errorf("wal: removing segments: %w", err)
		}
	}
	return reclaimed, nil
}

// Stats snapshots the journal's accounting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{Records: l.records, Commits: l.commits}
	segs, err := listSegments(l.dir)
	if err != nil {
		return st
	}
	st.Segments = len(segs)
	for _, seg := range segs {
		if fi, err := os.Stat(filepath.Join(l.dir, seg.name)); err == nil {
			st.Bytes += fi.Size()
		}
	}
	return st
}

// Close flushes and closes the journal. The log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.syncDone.Wait()
	}
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
