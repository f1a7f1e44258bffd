// Package wal is the write-ahead log behind sketchd's durability story:
// an append-only, CRC32C-framed record log of catalog mutations that a
// restarted daemon replays on top of its last snapshot to recover the
// ingest tail a crash would otherwise lose.
//
// # Record framing
//
// Every record is one self-validating frame:
//
//	uint32 LE   body length n (capped at MaxRecordBytes)
//	uint32 LE   CRC32C (Castagnoli) of the body
//	n bytes     body
//
// and the body is
//
//	uint64 LE   LSN (log sequence number, 1-based, strictly increasing)
//	uint8       op (OpPut, OpMerge, OpDelete)
//	uint32 LE   name length  | name bytes
//	uint32 LE   tag length   | tag bytes (merge idempotency key; else empty)
//	rest        payload (the already-encoded "IPST" TableSketch bundle for
//	            put/merge; empty for delete)
//
// The payload is exactly the frozen TableSketch wire format, so the
// golden serialization pins cover WAL contents for free.
//
// # Torn tails and corruption
//
// A crash can tear the last frame (partial write) or, without fsync,
// lose trailing bytes entirely. Readers never fail the boot on this:
// replay applies records up to the first frame whose length prefix is
// incomplete, whose body is short, or whose CRC mismatches, then stops
// cleanly. Open truncates the active segment back to the last valid
// frame boundary so new appends are contiguous with valid data.
//
// # Segments and checkpoints
//
// The log is a directory of segment files named wal-<firstLSN>.seg,
// rotated when the active segment exceeds Options.SegmentBytes. A
// checkpoint (written after a successful catalog snapshot) durably
// records the LSN through which state is captured in the snapshot;
// replay skips records at or below it, and fully-covered segments are
// deleted. Checkpoint publication and segment creation go through
// internal/fsx so the directory mutations themselves survive power loss.
//
// # Sync policy
//
// Appends always reach the kernel before the mutation is acknowledged
// (one write(2) per record, no user-space buffering), so a crashed or
// kill -9'd process loses nothing acknowledged under ANY policy. fsync
// policy only governs what a kernel panic or power loss can take:
// SyncAlways fsyncs every append (loses nothing), SyncInterval fsyncs on
// a timer (loses at most the last interval), SyncNone leaves flushing to
// the OS (loses up to the OS writeback window).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fsx"
)

// Op identifies a logged catalog mutation.
type Op uint8

// The logged mutation kinds.
const (
	OpPut    Op = 1 // replace the named table sketch with the payload
	OpMerge  Op = 2 // fold the payload (a partial sketch) into the named table
	OpDelete Op = 3 // remove the named table
)

// String names an op for logs and errors.
func (op Op) String() string {
	switch op {
	case OpPut:
		return "put"
	case OpMerge:
		return "merge"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Policy selects when appends are fsynced.
type Policy int

// The fsync policies.
const (
	SyncAlways   Policy = iota // fsync before acknowledging every append
	SyncInterval               // fsync on a timer (Options.SyncInterval)
	SyncNone                   // never fsync explicitly; the OS decides
)

// ParsePolicy maps a flag value ("always", "interval", "none") to a
// Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or none)", s)
}

// String names a policy.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// MarshalText and UnmarshalText make a Policy a text flag; UnmarshalText
// parses with ParsePolicy.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *Policy) UnmarshalText(text []byte) (err error) {
	*p, err = ParsePolicy(string(text))
	return err
}

// MaxRecordBytes caps one record's body; larger length prefixes are
// treated as corruption (they would otherwise let a flipped bit demand
// gigabytes).
const MaxRecordBytes = 1 << 30

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 64 << 20

// DefaultSyncInterval is the SyncInterval flush period when
// Options.SyncInterval is zero.
const DefaultSyncInterval = 100 * time.Millisecond

// Observer receives one latency observation in seconds. It is satisfied
// by *telemetry.Histogram; declaring it here keeps the log free of any
// telemetry dependency.
type Observer interface {
	Observe(v float64)
}

// Metrics are the optional latency observers a Log reports into. Zero
// fields are simply not observed; when a field is nil the corresponding
// code path takes no clock readings at all.
type Metrics struct {
	// AppendSeconds observes the full latency of each Append — frame
	// assembly, write(2), and (under SyncAlways) the fsync.
	AppendSeconds Observer
	// SyncSeconds observes each fsync of the active segment, whatever
	// triggered it (SyncAlways appends, the interval flusher, rotation,
	// or an explicit Sync).
	SyncSeconds Observer
}

// Options configures a Log.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// Sync is the fsync policy.
	Sync Policy
	// SyncInterval is the flush period under SyncInterval
	// (0 = DefaultSyncInterval).
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (0 = DefaultSegmentBytes).
	SegmentBytes int64
}

// Record is one logged mutation.
type Record struct {
	// LSN is the record's log sequence number (assigned by Append).
	LSN uint64
	// Op is the mutation kind.
	Op Op
	// Name is the table name the mutation targets.
	Name string
	// Tag is the merge idempotency key ("" for untagged mutations).
	Tag string
	// Payload is the encoded TableSketch bundle (nil for deletes).
	Payload []byte
}

// segment is one on-disk log file.
type segment struct {
	firstLSN uint64
	path     string
}

// Log is an append-only mutation log. All methods are safe for
// concurrent use; Replay must run before the first Append (the boot
// sequence: open, replay, then serve).
type Log struct {
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment
	segments []segment
	segSize  int64  // bytes in the active segment
	nextLSN  uint64 // next LSN to assign
	ckpt     uint64 // snapshot checkpoint LSN (replay skips <= ckpt)
	dirty    bool   // unsynced appends (SyncInterval bookkeeping)
	closed   bool
	scratch  []byte // frame assembly buffer

	appends, syncs, rotations uint64

	metrics Metrics

	tornNote string // human-readable note when Open truncated a torn tail

	flushStop chan struct{}
	flushDone chan struct{}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderLen = 8 // u32 length + u32 crc
	checkpointFile = "CHECKPOINT"
	segPrefix      = "wal-"
	segSuffix      = ".seg"
)

// Open opens (or creates) the log in opts.Dir: it reads the checkpoint,
// discovers segments, truncates any torn tail off the last segment, and
// positions the log to append after the last valid record.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: empty directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating directory: %w", err)
	}
	l := &Log{opts: opts, nextLSN: 1}
	if ckpt, err := readCheckpoint(filepath.Join(opts.Dir, checkpointFile)); err != nil {
		return nil, err
	} else {
		l.ckpt = ckpt
		if ckpt+1 > l.nextLSN {
			l.nextLSN = ckpt + 1
		}
	}
	if err := l.discoverSegments(); err != nil {
		return nil, err
	}
	if len(l.segments) == 0 {
		if err := l.createSegmentLocked(l.nextLSN); err != nil {
			return nil, err
		}
	} else if err := l.openTailLocked(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// discoverSegments lists wal-*.seg files in LSN order.
func (l *Log) discoverSegments() error {
	ents, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: listing directory: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var first uint64
		if _, err := fmt.Sscanf(name, segPrefix+"%016x"+segSuffix, &first); err != nil {
			continue // not ours; leave it alone
		}
		l.segments = append(l.segments, segment{firstLSN: first, path: filepath.Join(l.opts.Dir, name)})
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i].firstLSN < l.segments[j].firstLSN })
	return nil
}

// openTailLocked scans the last segment, truncates any torn tail, and
// opens it for appending.
func (l *Log) openTailLocked() error {
	tail := l.segments[len(l.segments)-1]
	data, err := os.ReadFile(tail.path)
	if err != nil {
		return fmt.Errorf("wal: reading tail segment: %w", err)
	}
	recs, validEnd, note := scanFrames(data)
	lastLSN := tail.firstLSN - 1 // empty segment: next record is firstLSN
	if n := len(recs); n > 0 {
		lastLSN = recs[n-1].LSN
	}
	if lastLSN+1 > l.nextLSN {
		l.nextLSN = lastLSN + 1
	}
	f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening tail segment: %w", err)
	}
	if int64(validEnd) < int64(len(data)) {
		if err := f.Truncate(int64(validEnd)); err != nil {
			f.Close()
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: syncing truncated tail: %w", err)
		}
		l.tornNote = fmt.Sprintf("truncated %d bytes after LSN %d in %s (%s)",
			int64(len(data))-int64(validEnd), lastLSN, filepath.Base(tail.path), note)
	}
	if _, err := f.Seek(int64(validEnd), 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: seeking to tail: %w", err)
	}
	l.f = f
	l.segSize = int64(validEnd)
	return nil
}

// createSegmentLocked starts a fresh segment whose first record will be
// firstLSN, and durably records its directory entry.
func (l *Log) createSegmentLocked(firstLSN uint64) error {
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := fsx.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segSize = 0
	l.segments = append(l.segments, segment{firstLSN: firstLSN, path: path})
	l.rotations++
	return nil
}

// SetMetrics installs latency observers. Call between Open and the
// first Append (the boot sequence constructs the log before the serving
// layer that owns the metrics registry exists).
func (l *Log) SetMetrics(m Metrics) {
	l.mu.Lock()
	l.metrics = m
	l.mu.Unlock()
}

// observe reports the seconds since t0 to obs; the nil checks keep the
// un-instrumented paths free of clock reads and observer calls.
func observe(obs Observer, t0 time.Time) {
	if obs != nil {
		obs.Observe(time.Since(t0).Seconds())
	}
}

// Append logs one mutation and returns its LSN. The record has reached
// the kernel when Append returns; under SyncAlways it has also been
// fsynced.
func (l *Log) Append(op Op, name, tag string, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: appending to a closed log")
	}
	if l.metrics.AppendSeconds != nil {
		defer observe(l.metrics.AppendSeconds, time.Now())
	}
	lsn := l.nextLSN
	frame := appendFrame(l.scratch[:0], lsn, op, name, tag, payload)
	l.scratch = frame[:0]
	if len(frame)-frameHeaderLen > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(frame)-frameHeaderLen)
	}
	if l.segSize > 0 && l.segSize+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: appending record %d: %w", lsn, err)
	}
	l.segSize += int64(len(frame))
	l.nextLSN++
	l.appends++
	switch l.opts.Sync {
	case SyncAlways:
		syncStart := time.Time{}
		if l.metrics.SyncSeconds != nil {
			syncStart = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: syncing record %d: %w", lsn, err)
		}
		if l.metrics.SyncSeconds != nil {
			observe(l.metrics.SyncSeconds, syncStart)
		}
		l.syncs++
	case SyncInterval:
		l.dirty = true
	}
	return lsn, nil
}

// rotateLocked seals the active segment (fsync + close) and starts the
// next one.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing sealed segment: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing sealed segment: %w", err)
	}
	l.dirty = false
	return l.createSegmentLocked(l.nextLSN)
}

// appendFrame encodes one framed record onto buf.
func appendFrame(buf []byte, lsn uint64, op Op, name, tag string, payload []byte) []byte {
	bodyLen := 8 + 1 + 4 + len(name) + 4 + len(tag) + len(payload)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen))
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	body := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = append(buf, byte(op))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tag)))
	buf = append(buf, tag...)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[body-4:body], crc32.Checksum(buf[body:], crcTable))
	return buf
}

// parseBody decodes a frame body (already CRC-validated).
func parseBody(body []byte) (Record, error) {
	if len(body) < 8+1+4 {
		return Record{}, errors.New("wal: record body too short")
	}
	rec := Record{LSN: binary.LittleEndian.Uint64(body)}
	rec.Op = Op(body[8])
	rest := body[9:]
	take := func() (string, error) {
		if len(rest) < 4 {
			return "", errors.New("wal: record body too short")
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if n > len(rest) {
			return "", errors.New("wal: record string overruns body")
		}
		s := string(rest[:n])
		rest = rest[n:]
		return s, nil
	}
	var err error
	if rec.Name, err = take(); err != nil {
		return Record{}, err
	}
	if rec.Tag, err = take(); err != nil {
		return Record{}, err
	}
	if len(rest) > 0 {
		rec.Payload = rest
	}
	switch rec.Op {
	case OpPut, OpMerge, OpDelete:
	default:
		return Record{}, fmt.Errorf("wal: unknown op %d", uint8(rec.Op))
	}
	return rec, nil
}

// scanFrames parses every valid frame at the front of data, returning
// the records, the byte offset after the last valid frame, and a note
// describing why the scan stopped early ("" when it consumed everything).
func scanFrames(data []byte) (recs []Record, validEnd int, note string) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, ""
		}
		if len(rest) < frameHeaderLen {
			return recs, off, "torn frame header"
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n > MaxRecordBytes {
			return recs, off, "implausible record length"
		}
		if len(rest) < frameHeaderLen+n {
			return recs, off, "torn record body"
		}
		wantCRC := binary.LittleEndian.Uint32(rest[4:])
		body := rest[frameHeaderLen : frameHeaderLen+n]
		if crc32.Checksum(body, crcTable) != wantCRC {
			return recs, off, "CRC mismatch"
		}
		rec, err := parseBody(body)
		if err != nil {
			return recs, off, err.Error()
		}
		recs = append(recs, rec)
		off += frameHeaderLen + n
	}
}

// Replay streams every record after the checkpoint, in LSN order, to fn.
// It reads the segment files as they were at Open time and stops cleanly
// at the first torn or corrupt record (reporting it via TornNote, not an
// error); an error from fn aborts the replay. Call before the first
// Append.
func (l *Log) Replay(fn func(Record) error) (int, error) {
	l.mu.Lock()
	segments := append([]segment(nil), l.segments...)
	ckpt := l.ckpt
	l.mu.Unlock()
	applied := 0
	for _, seg := range segments {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return applied, fmt.Errorf("wal: reading segment for replay: %w", err)
		}
		recs, validEnd, note := scanFrames(data)
		for _, rec := range recs {
			if rec.LSN <= ckpt {
				continue
			}
			if err := fn(rec); err != nil {
				return applied, fmt.Errorf("wal: applying record %d (%s %q): %w", rec.LSN, rec.Op, rec.Name, err)
			}
			applied++
		}
		if note != "" && validEnd < len(data) {
			l.mu.Lock()
			if l.tornNote == "" {
				l.tornNote = fmt.Sprintf("replay stopped in %s: %s", filepath.Base(seg.path), note)
			}
			l.mu.Unlock()
			return applied, nil
		}
	}
	return applied, nil
}

// Checkpoint durably records that catalog state through lsn is captured
// in a snapshot: replay will skip records at or below lsn, the active
// segment is rotated if it holds any checkpointed records, and segments
// fully covered by the checkpoint are deleted.
func (l *Log) Checkpoint(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: checkpointing a closed log")
	}
	if lsn >= l.nextLSN {
		return fmt.Errorf("wal: checkpoint LSN %d is beyond the last appended record %d", lsn, l.nextLSN-1)
	}
	if lsn < l.ckpt {
		return fmt.Errorf("wal: checkpoint LSN %d would move the checkpoint backwards from %d", lsn, l.ckpt)
	}
	if err := writeCheckpoint(filepath.Join(l.opts.Dir, checkpointFile), lsn); err != nil {
		return err
	}
	l.ckpt = lsn
	// Rotate the active segment off if it contains checkpointed records,
	// so it too becomes collectable.
	active := l.segments[len(l.segments)-1]
	if active.firstLSN <= lsn && l.segSize > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	// A segment is fully covered when its successor starts at or below
	// lsn+1 (every record in it is <= lsn). The active segment stays.
	kept := l.segments[:0]
	for i, seg := range l.segments {
		last := i == len(l.segments)-1
		covered := !last && l.segments[i+1].firstLSN <= lsn+1
		if covered {
			if err := os.Remove(seg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("wal: removing checkpointed segment: %w", err)
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = append([]segment(nil), kept...)
	return fsx.SyncDir(l.opts.Dir)
}

// ForgetCheckpoint durably resets the checkpoint to zero so the next
// Replay applies every record the log still holds. Disaster-recovery
// only: when the snapshot that justified the checkpoint is lost or
// unreadable, the surviving segments are the best remaining state.
// Records already garbage-collected by earlier checkpoints cannot be
// brought back, so the caller should surface that the recovered
// catalog may be missing tables older than the oldest segment. Call
// before Replay and the first Append.
func (l *Log) ForgetCheckpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: resetting the checkpoint of a closed log")
	}
	if err := writeCheckpoint(filepath.Join(l.opts.Dir, checkpointFile), 0); err != nil {
		return err
	}
	l.ckpt = 0
	return nil
}

// Sync forces an fsync of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed || l.f == nil {
		return nil
	}
	if l.metrics.SyncSeconds != nil {
		defer observe(l.metrics.SyncSeconds, time.Now())
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing: %w", err)
	}
	l.dirty = false
	l.syncs++
	return nil
}

// flushLoop is the SyncInterval background flusher.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if l.dirty {
				l.syncLocked()
			}
			l.mu.Unlock()
		case <-l.flushStop:
			return
		}
	}
}

// Close syncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	stop := l.flushStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.flushDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: closing: %w", cerr)
	}
	l.closed = true
	return err
}

// LSN returns the last assigned LSN (0 before the first append).
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// CheckpointLSN returns the current checkpoint.
func (l *Log) CheckpointLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckpt
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Policy returns the configured fsync policy.
func (l *Log) Policy() Policy { return l.opts.Sync }

// TornNote describes any torn-tail truncation or early replay stop
// ("" if the log was clean).
func (l *Log) TornNote() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tornNote
}

// checkpoint file: 8-byte magic, u64 LSN, CRC32C of the LSN bytes.
var ckptMagic = [8]byte{'I', 'P', 'S', 'W', 'C', 'K', 'P', 'T'}

func writeCheckpoint(path string, lsn uint64) error {
	buf := make([]byte, 0, 20)
	buf = append(buf, ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[8:16], crcTable))
	if err := fsx.WriteFileAtomic(path, buf); err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint returns 0 when the file is missing; a present but
// unreadable checkpoint is an error (silently treating it as 0 would
// double-apply records already captured in the snapshot).
func readCheckpoint(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: reading checkpoint: %w", err)
	}
	if len(data) != 20 || string(data[:8]) != string(ckptMagic[:]) {
		return 0, fmt.Errorf("wal: checkpoint file %s is malformed", path)
	}
	if crc32.Checksum(data[8:16], crcTable) != binary.LittleEndian.Uint32(data[16:]) {
		return 0, fmt.Errorf("wal: checkpoint file %s fails its CRC", path)
	}
	return binary.LittleEndian.Uint64(data[8:16]), nil
}
