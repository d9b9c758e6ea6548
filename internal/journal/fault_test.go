package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// opFailFS wraps the real filesystem and fails exactly one targeted
// operation, so each Compact failure exit can be exercised in isolation.
// Compact performs two OpenFiles distinguishable by flags: the tmp create
// (O_CREATE|O_TRUNC) and the pre-rename appender reopen (O_APPEND without
// O_CREATE).
type opFailFS struct {
	FS
	failCreate bool // fail OpenFile(tmp, O_CREATE|O_TRUNC)
	failReopen bool // fail OpenFile(tmp, O_APPEND) before the rename
	failWrite  bool // fail the tmp file's Writes
	failSync   bool // fail the tmp file's Sync
	failClose  bool // fail the tmp file's Close
	failRename bool // fail the Rename
}

var errOpFail = errors.New("opFailFS: targeted failure")

func (fs *opFailFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	create := flag&os.O_CREATE != 0
	if fs.failCreate && create && flag&os.O_TRUNC != 0 {
		return nil, errOpFail
	}
	if fs.failReopen && !create && flag&os.O_APPEND != 0 {
		return nil, errOpFail
	}
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	// Only sabotage the compaction temp file, never the live journal.
	if create && flag&os.O_TRUNC != 0 && (fs.failWrite || fs.failSync || fs.failClose) {
		return &opFailFile{File: f, fs: fs}, nil
	}
	return f, nil
}

func (fs *opFailFS) Rename(oldpath, newpath string) error {
	if fs.failRename {
		return errOpFail
	}
	return fs.FS.Rename(oldpath, newpath)
}

type opFailFile struct {
	File
	fs *opFailFS
}

func (f *opFailFile) Write(p []byte) (int, error) {
	if f.fs.failWrite {
		return 0, errOpFail
	}
	return f.File.Write(p)
}

func (f *opFailFile) Sync() error {
	if f.fs.failSync {
		return errOpFail
	}
	return f.File.Sync()
}

func (f *opFailFile) Close() error {
	if f.fs.failClose {
		f.File.Close()
		return errOpFail
	}
	return f.File.Close()
}

// Every Compact failure exit must remove the .compact temp and leave the
// original journal open and appendable — a failed compaction never costs
// durability of what is already logged (satellite: Compact error paths).
func TestCompactFailureExitsKeepJournalAppendable(t *testing.T) {
	cases := []struct {
		name string
		arm  func(*opFailFS)
	}{
		{"tmp-create", func(fs *opFailFS) { fs.failCreate = true }},
		{"tmp-write", func(fs *opFailFS) { fs.failWrite = true }},
		{"tmp-sync", func(fs *opFailFS) { fs.failSync = true }},
		{"tmp-close", func(fs *opFailFS) { fs.failClose = true }},
		{"reopen", func(fs *opFailFS) { fs.failReopen = true }},
		{"rename", func(fs *opFailFS) { fs.failRename = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "hub.wal")
			ffs := &opFailFS{FS: OSFS()}
			j := openT(t, path, Options{Fsync: FsyncAlways, FS: ffs})
			defer j.Close()
			if err := j.Append(rec("admit", "j-1", `{"n":1}`)); err != nil {
				t.Fatalf("Append: %v", err)
			}

			tc.arm(ffs)
			err := j.Compact([]Record{rec("checkpoint", "", `{"seq":1}`)})
			if !errors.Is(err, errOpFail) {
				t.Fatalf("Compact under %s fault: %v, want errOpFail", tc.name, err)
			}
			*ffs = opFailFS{FS: OSFS()}

			if _, serr := os.Stat(path + ".compact"); !os.IsNotExist(serr) {
				t.Errorf("failed Compact left %s.compact behind (stat: %v)", path, serr)
			}
			// The original journal must still accept and sync appends.
			if err := j.Append(rec("admit", "j-2", `{"n":2}`)); err != nil {
				t.Fatalf("Append after failed Compact: %v", err)
			}
			if st := j.Stats(); st.Rotations != 0 {
				t.Errorf("failed Compact counted a rotation: %+v", st)
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			j2 := openT(t, path, Options{})
			defer j2.Close()
			got := j2.Records()
			if len(got) != 2 || got[0].Key != "j-1" || got[1].Key != "j-2" {
				t.Fatalf("reopen after failed Compact replayed %+v, want j-1 and j-2", got)
			}
		})
	}
}

// A Compact that fails must not destroy the appender even when a later
// Compact succeeds: the journal heals fully on the next clean rotation.
func TestCompactRecoversAfterFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ffs := &opFailFS{FS: OSFS()}
	j := openT(t, path, Options{Fsync: FsyncAlways, FS: ffs})
	defer j.Close()
	if err := j.Append(rec("admit", "j-1", "")); err != nil {
		t.Fatal(err)
	}
	ffs.failRename = true
	if err := j.Compact([]Record{rec("checkpoint", "", "")}); err == nil {
		t.Fatal("Compact under rename fault succeeded")
	}
	ffs.failRename = false
	if err := j.Compact([]Record{rec("checkpoint", "", ""), rec("admit", "j-1", "")}); err != nil {
		t.Fatalf("Compact after heal: %v", err)
	}
	if st := j.Stats(); st.Rotations != 1 {
		t.Fatalf("rotations = %d, want 1", st.Rotations)
	}
	if err := j.Append(rec("complete", "j-1", "")); err != nil {
		t.Fatalf("Append after rotation: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openT(t, path, Options{})
	defer j2.Close()
	if got := j2.Records(); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3 (checkpoint, admit, complete)", len(got))
	}
}

// FaultWriteErr fails the append with the injected sentinel and nothing
// reaches the file; after Heal the same journal appends again.
func TestFaultFSWriteErrorThenHeal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ffs := NewFaultFS(OSFS(), 1)
	j := openT(t, path, Options{Fsync: FsyncAlways, FS: ffs})
	defer j.Close()
	if err := j.Append(rec("admit", "j-1", "")); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(FaultWriteErr)
	if err := j.Append(rec("admit", "j-2", "")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append under write fault: %v, want ErrInjected", err)
	}
	ffs.Heal()
	if err := j.Append(rec("admit", "j-3", "")); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if st := ffs.Stats(); st.WriteErrs != 1 {
		t.Fatalf("fault stats %+v, want 1 write error", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openT(t, path, Options{})
	defer j2.Close()
	got := j2.Records()
	if len(got) != 2 || got[0].Key != "j-1" || got[1].Key != "j-3" {
		t.Fatalf("replayed %+v, want j-1 and j-3 only", got)
	}
}

// FaultShortWrite tears the frame: a prefix lands on disk, the append
// errors, and reopen truncates the torn tail away.
func TestFaultFSShortWriteLeavesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ffs := NewFaultFS(OSFS(), 2)
	j := openT(t, path, Options{Fsync: FsyncAlways, FS: ffs})
	if err := j.Append(rec("admit", "j-1", `{"pad":"xxxxxxxxxxxxxxxx"}`)); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(FaultShortWrite)
	if err := j.Append(rec("admit", "j-2", `{"pad":"yyyyyyyyyyyyyyyy"}`)); !errors.Is(err, ErrInjected) {
		t.Fatalf("append under short-write fault: %v, want ErrInjected", err)
	}
	ffs.Heal()
	j.Close()

	j2 := openT(t, path, Options{FS: ffs})
	defer j2.Close()
	st := j2.Stats()
	if st.Records != 1 || st.TornBytes == 0 {
		t.Fatalf("reopen stats %+v, want 1 record and a truncated torn tail", st)
	}
	if got := j2.Records(); got[0].Key != "j-1" {
		t.Fatalf("replayed %+v, want j-1", got)
	}
}

// FaultSyncLoss models a power failure at fsync time: the failed sync
// drops everything buffered since the last successful one, so records
// acknowledged only to the page cache vanish on reopen.
func TestFaultFSSyncLossDropsBufferedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ffs := NewFaultFS(OSFS(), 3)
	j := openT(t, path, Options{Fsync: FsyncAlways, FS: ffs})
	if err := j.Append(rec("admit", "j-1", "")); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(FaultSyncLoss)
	if err := j.Append(rec("admit", "j-2", "")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append under sync-loss fault: %v, want ErrInjected", err)
	}
	if st := ffs.Stats(); st.SyncFails != 1 || st.LostBytes == 0 {
		t.Fatalf("fault stats %+v, want a sync failure with lost bytes", st)
	}
	ffs.Heal()
	j.Close()

	j2 := openT(t, path, Options{FS: ffs})
	defer j2.Close()
	got := j2.Records()
	if len(got) != 1 || got[0].Key != "j-1" {
		t.Fatalf("replayed %+v, want only the synced j-1", got)
	}
}

// FaultENOSPC: the budget-crossing write lands a partial prefix and fails
// with a real syscall.ENOSPC, so callers can classify disk-full distinctly
// from generic I/O errors. Healing (space freed) restores appends.
func TestFaultFSENOSPC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ffs := NewFaultFS(OSFS(), 4)
	j := openT(t, path, Options{Fsync: FsyncAlways, FS: ffs})
	if err := j.Append(rec("admit", "j-1", "")); err != nil {
		t.Fatal(err)
	}
	ffs.ArmENOSPC(10) // smaller than any frame: the next write crosses it
	err := j.Append(rec("admit", "j-2", `{"pad":"zzzzzzzz"}`))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on full disk: %v, want ENOSPC", err)
	}
	if st := ffs.Stats(); st.ENOSPCs != 1 {
		t.Fatalf("fault stats %+v, want 1 ENOSPC", st)
	}
	ffs.Heal()
	if err := j.Append(rec("admit", "j-3", "")); err != nil {
		t.Fatalf("append after space freed: %v", err)
	}
	j.Close()

	// j-2's partial prefix is mid-file debris before j-3's valid frame:
	// Scrub resynchronizes past it and accounts for it precisely.
	rep, serr := Scrub(ffs, path)
	if serr != nil {
		t.Fatal(serr)
	}
	if rep.Records != 2 || rep.Corrupt != 1 || rep.QuarantinedBytes != 10 {
		t.Fatalf("scrub after ENOSPC tear: %+v, want 2 records and a 10-byte corrupt region", rep)
	}

	// A plain reopen quarantines the debris and replays the acknowledged
	// j-3 after it, instead of truncating it away as a torn tail.
	j2 := openT(t, path, Options{})
	defer j2.Close()
	got := j2.Records()
	if len(got) != 2 || got[0].Key != "j-1" || got[1].Key != "j-3" {
		t.Fatalf("reopen after ENOSPC tear replayed %+v, want j-1 and j-3", got)
	}
	if st := j2.Stats(); st.Corrupt != 1 || st.QuarantinedBytes != 10 || st.TornBytes != 0 {
		t.Fatalf("reopen stats %+v, want 1 quarantined region of 10 bytes", st)
	}
	if _, err := os.Stat(QuarantinePath(path)); err != nil {
		t.Fatalf("no quarantine sidecar after reopen: %v", err)
	}
}

// A short write followed, once the disk heals, by a successful append
// leaves the torn frame under an acknowledged record. Reopening must
// quarantine the torn frame and replay the acknowledged record after it.
func TestFaultFSShortWriteThenAppendReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ffs := NewFaultFS(OSFS(), 6)
	j := openT(t, path, Options{Fsync: FsyncAlways, FS: ffs})
	if err := j.Append(rec("admit", "j-1", `{"pad":"xxxxxxxxxxxxxxxx"}`)); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(FaultShortWrite)
	if err := j.Append(rec("admit", "j-2", `{"pad":"yyyyyyyyyyyyyyyy"}`)); !errors.Is(err, ErrInjected) {
		t.Fatalf("append under short-write fault: %v, want ErrInjected", err)
	}
	ffs.Heal()
	j3 := rec("admit", "j-3", `{"pad":"zzzzzzzzzzzzzzzz"}`)
	if err := j.Append(j3); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	j.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := Encode(rec("admit", "j-1", `{"pad":"xxxxxxxxxxxxxxxx"}`))
	f3, _ := Encode(j3)
	torn := fi.Size() - int64(len(f1)+len(f3))

	j2 := openT(t, path, Options{})
	defer j2.Close()
	got := j2.Records()
	if len(got) != 2 || got[0].Key != "j-1" || got[1].Key != "j-3" {
		t.Fatalf("reopen after short write replayed %+v, want j-1 and j-3", got)
	}
	if st := j2.Stats(); st.Corrupt != 1 || st.QuarantinedBytes != torn || st.TornBytes != 0 {
		t.Fatalf("reopen stats %+v, want the %d-byte torn frame quarantined", st, torn)
	}
	if _, err := os.Stat(QuarantinePath(path)); err != nil {
		t.Fatalf("no quarantine sidecar after reopen: %v", err)
	}
}

// FaultBitRot flips one seeded bit per ReadFile: Scrub observes the
// corruption on a journal whose on-disk bytes are actually fine.
func TestFaultFSBitRotVisibleToScrub(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ffs := NewFaultFS(OSFS(), 5)
	j := openT(t, path, Options{Fsync: FsyncAlways, FS: ffs})
	defer j.Close()
	for i := 0; i < 8; i++ {
		if err := j.Append(rec("admit", "j-1", `{"pad":"aaaaaaaaaaaaaaaaaaaaaaaa"}`)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Arm(FaultBitRot)
	rep, err := j.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt == 0 && rep.TornBytes == 0 {
		t.Fatalf("scrub under bit rot reported clean: %+v", rep)
	}
	if st := ffs.Stats(); st.BitFlips != 1 {
		t.Fatalf("fault stats %+v, want 1 bit flip", st)
	}
	ffs.Heal()
	rep, err = j.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.TornBytes != 0 || rep.Records != 8 {
		t.Fatalf("scrub after heal: %+v, want 8 clean records", rep)
	}
}

// repairFile runs repair over path's current bytes on the real filesystem.
func repairFile(t *testing.T, path string) ScrubReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := repair(OSFS(), path, data)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// corruptRecord flips bytes inside record index idx's payload on disk,
// leaving valid records after it — mid-file rot, not a torn tail.
func corruptRecord(t *testing.T, path string, idx int) (off, length int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pos := int64(0)
	for i := 0; ; i++ {
		_, end, ok := decodeFrame(data, pos)
		if !ok {
			t.Fatalf("corruptRecord: no valid frame at index %d", i)
		}
		if i == idx {
			for b := pos + headerSize; b < end; b++ {
				data[b] ^= 0xFF
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return pos, end - pos
		}
		pos = end
	}
}

// Scrub reports mid-file rot precisely; repair quarantines it into the
// sidecar and rewrites the journal so a reopen replays everything that was
// still valid — including records after the rot.
func TestScrubRepairQuarantinesMidFileRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	j := openT(t, path, Options{Fsync: FsyncAlways})
	var want []string
	for i, key := range []string{"j-1", "j-2", "j-3", "j-4"} {
		if err := j.Append(rec("admit", key, `{"pad":"pppppppppppppppp"}`)); err != nil {
			t.Fatal(err)
		}
		if i != 1 {
			want = append(want, key)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	off, length := corruptRecord(t, path, 1)

	rep, err := Scrub(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 3 || rep.Corrupt != 1 || rep.QuarantinedBytes != length || rep.TornBytes != 0 {
		t.Fatalf("scrub = %+v, want 3 records, 1 corrupt region of %d bytes", rep, length)
	}

	// A plain reopen repairs too: it replays all three valid records,
	// j-3 and j-4 after the rot included. Check on a copy, so the repair
	// below still has the rot to cut.
	copyPath := path + ".copy"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	jPlain := openT(t, copyPath, Options{})
	if got := jPlain.Records(); len(got) != 3 || got[0].Key != "j-1" || got[1].Key != "j-3" || got[2].Key != "j-4" {
		t.Fatalf("plain reopen replayed %+v, want j-1, j-3 and j-4", got)
	}
	jPlain.Close()

	rrep := repairFile(t, path)
	if rrep != rep {
		t.Fatalf("repair report %+v != scrub report %+v", rrep, rep)
	}

	// The sidecar holds the cut region verbatim.
	qdata, err := os.ReadFile(QuarantinePath(path))
	if err != nil {
		t.Fatalf("quarantine sidecar: %v", err)
	}
	qrecs, good := Decode(qdata)
	if int64(len(qdata)) != good || len(qrecs) != 1 || qrecs[0].Kind != KindQuarantine {
		t.Fatalf("sidecar decoded %d records (good=%d of %d bytes)", len(qrecs), good, len(qdata))
	}
	var qp quarantinePayload
	if err := json.Unmarshal(qrecs[0].Payload, &qp); err != nil {
		t.Fatal(err)
	}
	if qp.Offset != off || int64(len(qp.Bytes)) != length {
		t.Fatalf("quarantined region off=%d len=%d, want off=%d len=%d", qp.Offset, len(qp.Bytes), off, length)
	}

	// The repaired journal reopens clean with every surviving record.
	j2 := openT(t, path, Options{})
	defer j2.Close()
	got := j2.Records()
	if len(got) != len(want) {
		t.Fatalf("repaired journal replayed %d records, want %d", len(got), len(want))
	}
	for i, key := range want {
		if got[i].Key != key {
			t.Fatalf("record %d key = %s, want %s", i, got[i].Key, key)
		}
	}
	rep2, err := Scrub(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Corrupt != 0 || rep2.TornBytes != 0 || rep2.Records != 3 {
		t.Fatalf("post-repair scrub = %+v, want clean", rep2)
	}
}

// repair leaves a clean journal byte-identical and never creates a
// sidecar; a torn tail alone is likewise not repair's business.
func TestRepairLeavesCleanAndTornJournalsAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	j := openT(t, path, Options{Fsync: FsyncAlways})
	for _, key := range []string{"j-1", "j-2"} {
		if err := j.Append(rec("admit", key, "")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := repairFile(t, path)
	if rep.Corrupt != 0 || rep.Records != 2 {
		t.Fatalf("repair of clean journal = %+v", rep)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("repair modified a clean journal")
	}
	if _, err := os.Stat(QuarantinePath(path)); !os.IsNotExist(err) {
		t.Fatalf("repair of clean journal created a sidecar (stat: %v)", err)
	}

	// Torn tail: append debris, repair must not touch it (truncation is
	// Open's own step).
	if err := os.WriteFile(path, append(before, []byte{9, 9, 9, 9, 9, 9, 9, 9, 9}...), 0o644); err != nil {
		t.Fatal(err)
	}
	rep = repairFile(t, path)
	if rep.Corrupt != 0 || rep.TornBytes != 9 {
		t.Fatalf("repair of torn journal = %+v, want 9 torn bytes and no corrupt regions", rep)
	}
	if _, err := os.Stat(QuarantinePath(path)); !os.IsNotExist(err) {
		t.Fatal("repair quarantined a torn tail")
	}
}

// Every Open repairs: the journal comes up past the rot with the scrub
// report surfaced in Stats.
func TestOpenRepairsMidFileRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	j := openT(t, path, Options{Fsync: FsyncAlways})
	for _, key := range []string{"j-1", "j-2", "j-3"} {
		if err := j.Append(rec("admit", key, `{"pad":"qqqqqqqqqqqqqqqq"}`)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	_, length := corruptRecord(t, path, 0)

	j2 := openT(t, path, Options{})
	defer j2.Close()
	st := j2.Stats()
	if st.Records != 2 || st.Corrupt != 1 || st.QuarantinedBytes != length {
		t.Fatalf("repaired stats = %+v, want 2 records, 1 quarantined region of %d bytes", st, length)
	}
	got := j2.Records()
	if len(got) != 2 || got[0].Key != "j-2" || got[1].Key != "j-3" {
		t.Fatalf("repaired replay %+v, want j-2 and j-3", got)
	}
	// The journal is live: appends land after the repaired content.
	if err := j2.Append(rec("admit", "j-4", "")); err != nil {
		t.Fatal(err)
	}
}

// ScanAll treats a bad region that reaches EOF as a torn tail, never a
// corrupt region, and resynchronizes across multiple separated regions.
func TestScanAllMultipleRegionsAndTornTail(t *testing.T) {
	frames := make(map[string][]byte)
	var buf []byte
	for _, key := range []string{"j-1", "j-2", "j-3", "j-4"} {
		frame, err := Encode(rec("admit", key, `{"pad":"mmmmmmmmmmmmmmmm"}`))
		if err != nil {
			t.Fatal(err)
		}
		frames[key] = frame
		buf = append(buf, frame...)
	}
	// Corrupt j-1 and j-3 in place, then tear the tail after j-4.
	data := append([]byte(nil), buf...)
	off := int64(0)
	for i, key := range []string{"j-1", "j-2", "j-3", "j-4"} {
		l := int64(len(frames[key]))
		if i == 0 || i == 2 {
			for b := off + headerSize; b < off+l; b++ {
				data[b] ^= 0xFF
			}
		}
		off += l
	}
	data = append(data, 7, 7, 7)

	recs, regions, torn := ScanAll(data)
	if len(recs) != 2 || recs[0].Key != "j-2" || recs[1].Key != "j-4" {
		t.Fatalf("ScanAll records %+v, want j-2 and j-4", recs)
	}
	if len(regions) != 2 {
		t.Fatalf("ScanAll regions %+v, want 2", regions)
	}
	if torn != 3 {
		t.Fatalf("ScanAll torn = %d, want 3", torn)
	}
}
