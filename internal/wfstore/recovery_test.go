package wfstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/wf"
)

// TestFileStoreTornTailRecovery simulates a crash mid-append: the log is
// truncated inside its final frame. Reopening must succeed, replay
// everything before the tear, drop exactly the torn record, and
// physically truncate it away so subsequent appends do not fuse with the
// partial frame.
func TestFileStoreTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.log")
	s := openFile(t, path)
	if err := s.PutType(sampleType()); err != nil {
		t.Fatal(err)
	}
	put := func(st *FileStore, id string) {
		t.Helper()
		in := &wf.Instance{ID: id, Type: "t", Version: 1, State: wf.InstRunning,
			Data: map[string]any{"n": 1}}
		if err := st.PutInstance(in); err != nil {
			t.Fatal(err)
		}
	}
	put(s, "i1")
	put(s, "i2")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: chop bytes off the end, well inside i2's
	// frame.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-9]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := journal.Scrub(nil, path); err != nil || rep.TornBytes == 0 {
		t.Fatalf("test setup: tear landed on a frame boundary (%+v, %v)", rep, err)
	}

	// Reopen: i1 survives, the torn i2 is gone, nothing errors.
	s2 := openFile(t, path)
	if _, err := s2.GetInstance("i1"); err != nil {
		t.Fatalf("i1 lost in recovery: %v", err)
	}
	if _, err := s2.GetInstance("i2"); err == nil {
		t.Fatal("torn record i2 resurrected from a partial frame")
	}
	// The tail was truncated away on disk, not just skipped in memory.
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) >= len(torn) {
		t.Fatalf("torn tail not truncated: %d bytes on disk, tear was at %d", len(onDisk), len(torn))
	}
	if rep, err := journal.Scrub(nil, path); err != nil || rep.TornBytes != 0 || rep.Corrupt != 0 {
		t.Fatalf("recovered log does not end on a frame boundary: %+v, %v", rep, err)
	}

	// Appending after recovery starts on a clean boundary: a third
	// instance persists and survives another reopen alongside i1.
	put(s2, "i3")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openFile(t, path)
	if _, err := s3.GetInstance("i1"); err != nil {
		t.Fatalf("i1 lost after post-recovery append: %v", err)
	}
	if _, err := s3.GetInstance("i3"); err != nil {
		t.Fatalf("post-recovery append lost: %v", err)
	}
	if _, err := s3.GetInstance("i2"); err == nil {
		t.Fatal("torn record i2 reappeared after append + reopen")
	}
}

// TestFileStoreMidLogBitFlipQuarantined: one bit flipped at rest inside
// the middle of three instance records, where the JSON still parses
// ("TP1" becomes "TP3"). The reopen must not serve the flipped value: the
// record's frame fails its CRC, goes to the quarantine sidecar, and the
// records on both sides of it replay.
func TestFileStoreMidLogBitFlipQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.log")
	s := openFile(t, path)
	for _, id := range []string{"i1", "i2", "i3"} {
		in := &wf.Instance{ID: id, Type: "t", Version: 1, State: wf.InstRunning,
			Data: map[string]any{"source": "TP1"}}
		if err := s.PutInstance(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`"id":"i2"`))
	if at < 0 {
		t.Fatal("test setup: i2's record not found")
	}
	at += bytes.Index(data[at:], []byte("TP1")) + len("TP")
	data[at] ^= '1' ^ '3'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openFile(t, path)
	if got, err := s2.GetInstance("i2"); err == nil {
		t.Fatalf("bit-flipped record served: source %v", got.Data["source"])
	}
	for _, id := range []string{"i1", "i3"} {
		got, err := s2.GetInstance(id)
		if err != nil || got.Data["source"] != "TP1" {
			t.Fatalf("%s around the flipped record: %v, %v", id, got, err)
		}
	}
	qdata, err := os.ReadFile(journal.QuarantinePath(path))
	if err != nil {
		t.Fatalf("no quarantine sidecar: %v", err)
	}
	if qrecs, _ := journal.Decode(qdata); len(qrecs) != 1 || qrecs[0].Kind != journal.KindQuarantine {
		t.Fatalf("sidecar holds %+v, want one quarantined region", qrecs)
	}
}
