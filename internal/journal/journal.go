// Package journal is the hub's write-ahead log: an append-only file of
// CRC-framed, length-prefixed records that survives process crashes. The
// hub journals every admitted exchange before the scheduler sees it and
// every terminal outcome after, so a restarted hub can replay the log and
// re-derive exactly what was in flight (see core.Hub.Recover). The
// workflow database (wfstore.FileStore) keeps its types and instances in
// the same format.
//
// # Record framing
//
// Each record is framed as
//
//	| length uint32 LE | crc32(payload) uint32 LE | payload |
//
// where payload is the JSON encoding of Record. A reader accepts a record
// only when the full frame is present, the length is sane, the CRC
// matches and the payload decodes.
//
// # Recovery at open
//
// Open walks the whole file with ScanAll (scrub.go) and applies one rule
// to every span of bytes that fails those checks:
//
//   - a bad span that reaches the end of the file is a torn tail, the
//     debris of an append a crash cut short, and is truncated away;
//   - a bad span with valid frames after it is quarantined: its bytes go
//     to the path+".quarantine" sidecar and the file is atomically
//     rewritten to its valid records.
//
// Damage in the middle of the file is not only bit rot at rest. An append
// that fails part-way (a short write, a full disk) leaves a partial frame,
// and the journal stays open, so the next successful append lands after
// it; the hub's fail-stop policy does exactly that by design. Truncating
// at the first bad frame would then drop every acknowledged record after
// the debris. Under the one rule a damaged span costs only the records it
// covers, and a torn tail only the unacknowledged append it was.
//
// # Storage seam
//
// Every filesystem operation goes through the FS interface (fs.go);
// Options.FS selects the implementation. Production uses the real
// filesystem (OSFS); the chaos harness injects disk faults with FaultFS.
//
// # Durability contract
//
// The fsync policy bounds what a crash can lose of *acknowledged* appends
// (Append returned nil):
//
//   - FsyncAlways: every append is fsynced before Append returns. Nothing
//     acknowledged is lost, even on power failure.
//   - FsyncBatched (default): appends are flushed to the OS immediately and
//     fsynced in groups (every DefaultBatchAppends appends or
//     DefaultBatchInterval, whichever first). A process crash loses
//     nothing; a power failure loses at most the last unsynced batch.
//   - FsyncNever: appends are flushed to the OS but never fsynced. A
//     process crash loses nothing; a power failure may lose any suffix.
//
// An Append that returns an error makes no durability promise: the frame
// may be absent, torn, or present but unsynced. A torn frame costs nothing
// else: later appends still land and replay (see Recovery at open). The
// hub's durability failure policy (core.WithJournalFailurePolicy) decides
// what happens to the exchange.
//
// # Compaction
//
// Compact atomically rewrites the log to the given live records: the new
// log is written to path+".compact", fsynced, and renamed over the old
// one. A crash mid-compaction leaves the old log intact plus an orphan
// .compact file, which Open discards (the rename never happened, so the
// orphan is an incomplete rewrite by definition). A *failure*
// mid-compaction — a sync error, a full disk, a rename refusal — removes
// the orphan and leaves the original journal open and appendable, so a
// failed compaction never costs durability of what is already logged.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"
)

// FsyncPolicy selects when appended records are fsynced to stable storage.
type FsyncPolicy string

// Fsync policies. See the package comment for the durability contract.
const (
	FsyncAlways  FsyncPolicy = "always"
	FsyncBatched FsyncPolicy = "batched"
	FsyncNever   FsyncPolicy = "never"
)

// ParsePolicy parses a policy name as given on a command line.
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncBatched, FsyncNever:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("journal: unknown fsync policy %q (want always, batched or never)", s)
}

// Batched group-commit defaults and the frame sanity bound.
const (
	// DefaultBatchAppends is how many appends a batched journal groups
	// under one fsync.
	DefaultBatchAppends = 32
	// DefaultBatchInterval bounds how stale a batched journal's last fsync
	// may get while appends keep arriving.
	DefaultBatchInterval = 2 * time.Millisecond
	// MaxRecordSize bounds a frame's declared payload length; a length
	// beyond it (a torn header or flipped bits) ends replay instead of
	// attempting a gigabyte allocation.
	MaxRecordSize = 16 << 20

	headerSize = 8
)

// ErrNoAppender reports an append on a journal whose write handle was
// lost mid-rotation (a Compact renamed the new log into place but could
// not reopen it). The journal heals on the next successful Compact — the
// hub's degraded-mode probe drives that.
var ErrNoAppender = errors.New("journal: no appender (reopen after compaction rename failed)")

// Record is one journal entry. The journal itself is payload-agnostic:
// Kind and Key index the record, Payload carries the owner's data (the hub
// stores admitted requests and exchange outcomes, see core).
type Record struct {
	// Kind classifies the record ("admit", "complete", "resolve",
	// "checkpoint" for the hub's log).
	Kind string `json:"k"`
	// Key correlates records of one unit of work (the hub's admission key).
	Key string `json:"key,omitempty"`
	// Payload is the owner's data.
	Payload json.RawMessage `json:"p,omitempty"`
}

// Options configures Open.
type Options struct {
	// Fsync is the durability policy; empty means FsyncBatched.
	Fsync FsyncPolicy
	// FS is the storage seam; nil means the real filesystem.
	FS FS
}

// Stats is a snapshot of a journal's activity.
type Stats struct {
	// Records is how many records the open-time replay yielded.
	Records int
	// TornBytes is how many trailing bytes the open-time replay truncated
	// (a torn final frame, or debris after one).
	TornBytes int64
	// Corrupt is how many mid-file corrupt regions the open-time repair
	// quarantined.
	Corrupt int
	// QuarantinedBytes is the total size of those regions.
	QuarantinedBytes int64
	// Appends counts records appended since open; Syncs counts fsyncs.
	Appends int64
	Syncs   int64
	// Rotations counts successful Compacts since open.
	Rotations int64
}

// CrashPoint names a place in the append stream where a test harness wants
// the process to "crash". When the armed point trips, the journal freezes:
// the bytes on disk stay exactly as they were at the point, every later
// Append/Compact/Sync silently does nothing (the doomed process runs on,
// but nothing more reaches disk), and a reopened journal sees only the
// pre-crash state — the same observable state a real crash leaves behind.
// Crash points exist for the chaos harness; production code never arms one.
type CrashPoint struct {
	// Match selects the record the point trips on; nil matches every record.
	Match func(Record) bool
	// Skip skips that many matching records before tripping.
	Skip int
	// Before trips the point before the matching record is written (the
	// record is lost); otherwise it is written and synced first (the
	// record is durable, everything after is lost).
	Before bool
}

// Journal is an open write-ahead log. It is safe for concurrent use.
type Journal struct {
	path string
	fs   FS

	mu        sync.Mutex
	f         File
	replayed  []Record
	appends   int64
	rotations int64
	syncer    syncer
	// scrub is the open-time repair's account of the file.
	scrub ScrubReport
	// buf is Append's frame buffer, reused under mu: a File must not
	// retain the slice it is given, as for any io.Writer.
	buf []byte

	crash        *CrashPoint
	crashCompact bool
	frozen       bool
}

// Open opens (creating if needed) the journal at path and replays it under
// the package's one recovery rule: a torn tail is truncated away and
// mid-file corrupt regions are quarantined (see repair), so replay
// proceeds past them; Stats accounts for both. An orphan compaction file
// from a crashed Compact is discarded. The replayed records are available
// via Records.
func Open(path string, opts Options) (*Journal, error) {
	if opts.Fsync == "" {
		opts.Fsync = FsyncBatched
	}
	if opts.FS == nil {
		opts.FS = OSFS()
	}
	fs := opts.FS
	// A crash between writing path+".compact" and renaming it leaves the
	// old log authoritative: the orphan is an incomplete rewrite.
	if err := fs.Remove(path + ".compact"); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: remove stale compaction %s: %w", path+".compact", err)
	}
	j := &Journal{path: path, fs: fs}
	if data, err := fs.ReadFile(path); err == nil {
		if j.replayed, j.scrub, err = repair(fs, path, data); err != nil {
			return nil, err
		}
		// A rewrite around corrupt regions already dropped the torn tail.
		if j.scrub.Corrupt == 0 && j.scrub.TornBytes > 0 {
			if terr := fs.Truncate(path, int64(len(data))-j.scrub.TornBytes); terr != nil {
				return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, terr)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j.f = f
	j.syncer = newSyncer(opts.Fsync)
	return j, nil
}

// Decode scans data for framed records and returns every valid record plus
// the byte offset just past the last one. Scanning stops at the first
// frame that is incomplete, oversized, CRC-mismatched or undecodable. Open
// does not stop there: it replays ScanAll's walk, which resynchronizes
// past corrupt regions.
func Decode(data []byte) ([]Record, int64) {
	var recs []Record
	off := int64(0)
	for int(off)+headerSize <= len(data) {
		rec, end, ok := decodeFrame(data, off)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, off
}

// decodeFrame parses one frame at off, returning the record and the
// offset just past it.
func decodeFrame(data []byte, off int64) (Record, int64, bool) {
	var rec Record
	if int(off)+headerSize > len(data) {
		return rec, off, false
	}
	length := binary.LittleEndian.Uint32(data[off : off+4])
	if length == 0 || length > MaxRecordSize {
		return rec, off, false
	}
	end := off + headerSize + int64(length)
	if end > int64(len(data)) {
		return rec, off, false
	}
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	payload := data[off+headerSize : end]
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, off, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Kind == "" {
		return rec, off, false
	}
	return rec, end, true
}

// Encode frames one record.
func Encode(rec Record) ([]byte, error) { return appendFrame(nil, rec) }

// appendFrame appends rec's frame to dst: the one framing function behind
// Encode, Append, Compact and the repair rewrite.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return dst, fmt.Errorf("journal: marshal: %w", err)
	}
	if len(payload) > MaxRecordSize {
		return dst, fmt.Errorf("journal: record of %d bytes exceeds MaxRecordSize", len(payload))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// writeFile writes recs to name (created or truncated) as one framed log
// and fsyncs it. On any failure it removes name, so a partial rewrite
// never survives to be mistaken for a log.
func writeFile(fs FS, name string, recs []Record) error {
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return err
		}
	}
	f, err := fs.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeSyncClose(f, buf); err != nil {
		_ = fs.Remove(name)
		return err
	}
	return nil
}

// writeSyncClose writes buf to f, fsyncs and closes it, returning the
// first error.
func writeSyncClose(f File, buf []byte) error {
	_, err := f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Records returns the records the open-time replay yielded.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.replayed...)
}

// Append writes one record under the journal's fsync policy. When the
// policy is FsyncAlways the record is durable before Append returns. An
// error voids the durability promise for this record only: the journal
// stays open and later appends may succeed (the disk may have healed).
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.frozen {
		return nil
	}
	if j.f == nil {
		return ErrNoAppender
	}
	frame, err := appendFrame(j.buf[:0], rec)
	if err != nil {
		return err
	}
	j.buf = frame
	if cp := j.crash; cp != nil && cp.Before && cp.matches(rec) {
		j.frozen = true
		return nil
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.appends++
	if err := j.syncer.didAppend(j.f); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	if cp := j.crash; cp != nil && !cp.Before && cp.matches(rec) {
		// The matching record must be durable before the freeze: "crash
		// after committed" means exactly that.
		if err := j.syncer.sync(j.f); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
		j.frozen = true
	}
	return nil
}

// matches consumes one Skip per matching record and reports whether the
// point trips now. Callers hold the journal lock.
func (cp *CrashPoint) matches(rec Record) bool {
	if cp.Match != nil && !cp.Match(rec) {
		return false
	}
	if cp.Skip > 0 {
		cp.Skip--
		return false
	}
	return true
}

// Sync flushes and fsyncs regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.frozen {
		return nil
	}
	if j.f == nil {
		return ErrNoAppender
	}
	return j.syncer.sync(j.f)
}

// Close syncs (per policy) and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.frozen || j.f == nil {
		return nil
	}
	if err := j.syncer.flush(j.f); err != nil {
		return err
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Compact atomically replaces the log's contents with the given records —
// the owner's live set (the hub writes a checkpoint plus every unfinished
// admission and unresolved dead letter). The new log is fully written and
// fsynced before the rename, so a crash at any point leaves either the
// complete old log or the complete new one; a write/sync/rename *failure*
// removes the temp file and leaves the original journal open and
// appendable. Compact is also the recovery rotation: it succeeds even
// when the journal's appender was lost (ErrNoAppender) or its tail is
// dirty, because the rewrite never touches the old handle until the new
// log is durably in place.
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.frozen {
		return nil
	}
	tmp := j.path + ".compact"
	if err := writeFile(j.fs, tmp, live); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if j.crashCompact {
		// Crash-point simulation: the rewrite is on disk but the rename
		// never happens — exactly the old+new state Open must untangle.
		j.frozen = true
		return nil
	}
	// Open the future appender on the temp file *before* the rename: the
	// handle follows the inode across it, so once the rename lands the
	// appender is the new journal and no post-rename open can strand us.
	nf, err := j.fs.OpenFile(tmp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		_ = j.fs.Remove(tmp) // best effort: Open also discards orphans
		return fmt.Errorf("journal: compact reopen: %w", err)
	}
	if err := j.fs.Rename(tmp, j.path); err != nil {
		nf.Close()
		_ = j.fs.Remove(tmp)
		return fmt.Errorf("journal: compact rename: %w", err)
	}
	// Point of no return: the new log is authoritative. The old handle's
	// close error (if any) cannot matter anymore.
	if j.f != nil {
		_ = j.f.Close()
	}
	j.f = nf
	j.rotations++
	return nil
}

// Size reports the current log size in bytes.
func (j *Journal) Size() (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fi, err := j.fs.Stat(j.path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Stats returns an activity snapshot.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Records:          len(j.replayed),
		TornBytes:        j.scrub.TornBytes,
		Corrupt:          j.scrub.Corrupt,
		QuarantinedBytes: j.scrub.QuarantinedBytes,
		Appends:          j.appends,
		Syncs:            j.syncer.syncs,
		Rotations:        j.rotations,
	}
}

// Scrub walks the journal's current on-disk bytes read-only and reports
// every valid record, corrupt region and torn tail (see the package-level
// Scrub). It takes the journal lock so the walk never races a rotation.
func (j *Journal) Scrub() (ScrubReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Scrub(j.fs, j.path)
}

// Arm installs a crash point (chaos harness only; see CrashPoint).
func (j *Journal) Arm(cp CrashPoint) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crash = &cp
}

// ArmCompactCrash makes the next Compact freeze after writing the rewrite
// but before the atomic rename, leaving old and new files both on disk.
func (j *Journal) ArmCompactCrash() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crashCompact = true
}

// Crashed reports whether an armed crash point has tripped.
func (j *Journal) Crashed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.frozen
}
