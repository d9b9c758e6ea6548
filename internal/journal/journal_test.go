package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func rec(kind, key, payload string) Record {
	var p json.RawMessage
	if payload != "" {
		p = json.RawMessage(payload)
	}
	return Record{Kind: kind, Key: key, Payload: p}
}

func openT(t *testing.T, path string, opts Options) *Journal {
	t.Helper()
	j, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return j
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	j := openT(t, path, Options{Fsync: FsyncAlways})
	want := []Record{
		rec("admit", "j-1", `{"kind":"po"}`),
		rec("complete", "j-1", `{"outcome":"completed"}`),
		rec("resolve", "", `{"ex":"ex-000001"}`),
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := openT(t, path, Options{})
	defer j2.Close()
	got := j2.Records()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Key != want[i].Key || string(got[i].Payload) != string(want[i].Payload) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := j2.Stats(); st.TornBytes != 0 || st.Records != len(want) {
		t.Errorf("stats = %+v", st)
	}
}

// marshalFrame frames rec as the journal framed records before it encoded
// them in place: json.Marshal(rec) behind its length and CRC.
func marshalFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...), nil
}

// TestEncodeMatchesMarshal holds Encode and Append to the bytes the
// journal wrote when it marshalled each record first, on records whose
// bytes json.Marshal decides: escapes, invalid UTF-8, a payload that is
// not compact or holds HTML, and empty key and payload. A record Marshal
// refuses fails Append without a trace in the file.
func TestEncodeMatchesMarshal(t *testing.T) {
	recs := []Record{
		rec("admit", "j-00000001", `{"kind":"wire-po","wire":"SVNBKjAw"}`),
		rec("complete", "", ""),
		rec("resolve", "ex-000001", `null`),
		rec("ad<mit>&\u2028\x01\xff", "k\"ey\\", " {\n \"a\" : [ 1, 2 ], \"b\": \"<x>&\u2029\" } "),
		{Kind: "config", Payload: json.RawMessage{}},
	}
	path := filepath.Join(t.TempDir(), "bytes.wal")
	j := openT(t, path, Options{Fsync: FsyncNever})
	var want []byte
	for _, r := range recs {
		ref, err := marshalFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("Encode(%+v)\n got %q\nwant %q", r, got, ref)
		}
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, ref...)
		bad := Record{Kind: "admit", Payload: json.RawMessage(`{"a":`)}
		if _, err := marshalFrame(bad); err == nil {
			t.Fatal("json.Marshal accepted a truncated payload")
		}
		if _, err := Encode(bad); err == nil {
			t.Fatal("Encode accepted a truncated payload")
		}
		if err := j.Append(bad); err == nil {
			t.Fatal("Append accepted a truncated payload")
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatalf("appended log\n got %q\nwant %q", onDisk, want)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	j := openT(t, path, Options{Fsync: FsyncAlways})
	for i := 0; i < 3; i++ {
		if err := j.Append(rec("admit", "k", `{"n":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	full := fi.Size()

	// Append a half-written frame: a crash mid-append.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0x00, 0x00}) // 3 of 8 header bytes
	f.Close()

	j2 := openT(t, path, Options{})
	defer j2.Close()
	if got := len(j2.Records()); got != 3 {
		t.Fatalf("replayed %d records, want 3", got)
	}
	if st := j2.Stats(); st.TornBytes != 3 {
		t.Errorf("TornBytes = %d, want 3", st.TornBytes)
	}
	fi, _ = os.Stat(path)
	if fi.Size() != full {
		t.Errorf("file size %d after truncate, want %d", fi.Size(), full)
	}
}

func TestBitFlipEndsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	j := openT(t, path, Options{Fsync: FsyncAlways})
	for i := 0; i < 4; i++ {
		if err := j.Append(rec("admit", "k", `{"n":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, _ := os.ReadFile(path)
	frame := len(data) / 4
	// Flip a payload bit inside the third record.
	data[2*frame+headerSize+2] ^= 0x10
	os.WriteFile(path, data, 0o644)

	recs, good := Decode(data)
	if len(recs) != 2 {
		t.Fatalf("decoded %d records past a bit flip, want 2", len(recs))
	}
	if good != int64(2*frame) {
		t.Fatalf("good offset %d, want %d", good, 2*frame)
	}
}

func TestOversizedLengthEndsReplay(t *testing.T) {
	buf := make([]byte, headerSize+4)
	binary.LittleEndian.PutUint32(buf[0:4], MaxRecordSize+1)
	if recs, good := Decode(buf); len(recs) != 0 || good != 0 {
		t.Fatalf("decoded %d records at offset %d from oversized frame", len(recs), good)
	}
}

func TestCompactRewritesToLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	j := openT(t, path, Options{Fsync: FsyncAlways})
	for i := 0; i < 10; i++ {
		j.Append(rec("admit", "k", `{"n":1}`))
	}
	big, _ := j.Size()
	live := []Record{rec("checkpoint", "", `{"exch":10}`), rec("admit", "j-7", `{"kind":"po"}`)}
	if err := j.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	small, _ := j.Size()
	if small >= big {
		t.Errorf("compacted size %d not smaller than %d", small, big)
	}
	// The compacted journal stays appendable.
	if err := j.Append(rec("complete", "j-7", `{"outcome":"completed"}`)); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	j.Close()

	j2 := openT(t, path, Options{})
	defer j2.Close()
	got := j2.Records()
	if len(got) != 3 || got[0].Kind != "checkpoint" || got[1].Key != "j-7" || got[2].Kind != "complete" {
		t.Fatalf("replay after compact = %+v", got)
	}
}

func TestOrphanCompactionDiscarded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hub.wal")
	j := openT(t, path, Options{Fsync: FsyncAlways})
	j.Append(rec("admit", "j-1", `{"kind":"po"}`))
	j.ArmCompactCrash()
	if err := j.Compact([]Record{rec("checkpoint", "", `{}`)}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !j.Crashed() {
		t.Fatal("compact crash point did not trip")
	}
	if _, err := os.Stat(path + ".compact"); err != nil {
		t.Fatalf("expected orphan compaction file: %v", err)
	}

	j2 := openT(t, path, Options{})
	defer j2.Close()
	got := j2.Records()
	if len(got) != 1 || got[0].Key != "j-1" {
		t.Fatalf("replay after crashed compact = %+v, want the old log", got)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Errorf("orphan compaction file survived reopen: %v", err)
	}
}

func TestCrashPointBeforeAndAfter(t *testing.T) {
	isAdmit := func(r Record) bool { return r.Kind == "admit" }

	// Before: the matching record and everything after are lost.
	path := filepath.Join(t.TempDir(), "before.wal")
	j := openT(t, path, Options{Fsync: FsyncAlways})
	j.Arm(CrashPoint{Match: isAdmit, Skip: 1, Before: true})
	j.Append(rec("admit", "j-1", `{}`))
	j.Append(rec("admit", "j-2", `{}`)) // trips here; lost
	j.Append(rec("admit", "j-3", `{}`)) // after the crash; lost
	if !j.Crashed() {
		t.Fatal("crash point did not trip")
	}
	j2 := openT(t, path, Options{})
	if got := j2.Records(); len(got) != 1 || got[0].Key != "j-1" {
		t.Fatalf("before-crash replay = %+v", got)
	}
	j2.Close()

	// After: the matching record is durable, everything after is lost.
	path = filepath.Join(t.TempDir(), "after.wal")
	j = openT(t, path, Options{Fsync: FsyncNever})
	j.Arm(CrashPoint{Match: isAdmit, Before: false})
	j.Append(rec("admit", "j-1", `{}`)) // trips here; durable
	j.Append(rec("complete", "j-1", `{}`))
	j2 = openT(t, path, Options{})
	if got := j2.Records(); len(got) != 1 || got[0].Kind != "admit" {
		t.Fatalf("after-crash replay = %+v", got)
	}
	j2.Close()
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatched, FsyncNever} {
		t.Run(string(policy), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "hub.wal")
			j := openT(t, path, Options{Fsync: policy})
			j.syncer.batchAppends, j.syncer.batchInterval = 4, time.Hour
			for i := 0; i < 10; i++ {
				if err := j.Append(rec("admit", "k", `{"n":1}`)); err != nil {
					t.Fatal(err)
				}
			}
			st := j.Stats()
			switch policy {
			case FsyncAlways:
				if st.Syncs != 10 {
					t.Errorf("always: %d syncs, want 10", st.Syncs)
				}
			case FsyncBatched:
				// 10 appends at a batch of 4 group-commit into 2 fsyncs.
				if st.Syncs >= 10 || st.Syncs < 1 {
					t.Errorf("batched: %d syncs, want 1..9", st.Syncs)
				}
			case FsyncNever:
				if st.Syncs != 0 {
					t.Errorf("never: %d syncs, want 0", st.Syncs)
				}
			}
			j.Close()
			j2 := openT(t, path, Options{})
			if got := len(j2.Records()); got != 10 {
				t.Errorf("%s: replayed %d records, want 10", policy, got)
			}
			j2.Close()
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for _, ok := range []string{"always", "batched", "never"} {
		if _, err := ParsePolicy(ok); err != nil {
			t.Errorf("ParsePolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}
