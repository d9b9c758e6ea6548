package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode feeds arbitrary bytes — and mutations of well-formed logs —
// through the framing and the open-time replay. The contract under test:
// Decode never panics, never reports an offset past the data, yields only
// records whose frames verify (truncation, bit flips and CRC mismatches
// end the scan instead of mis-parsing into a valid record), and a journal
// opened on the raw bytes replays exactly ScanAll's records and accepts
// further appends that replay cleanly.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00})
	good := func(recs ...Record) []byte {
		var buf bytes.Buffer
		for _, r := range recs {
			frame, err := Encode(r)
			if err != nil {
				f.Fatal(err)
			}
			buf.Write(frame)
		}
		return buf.Bytes()
	}
	seed := good(
		Record{Kind: "admit", Key: "j-00000001", Payload: json.RawMessage(`{"kind":"po"}`)},
		Record{Kind: "complete", Key: "j-00000001", Payload: json.RawMessage(`{"outcome":"completed"}`)},
	)
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	flipped := append([]byte(nil), seed...)
	flipped[9] ^= 0x40 // corrupt the first payload
	f.Add(flipped)
	f.Add(append(append([]byte(nil), seed...), 0x01, 0x02))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodOff := Decode(data)
		if goodOff < 0 || goodOff > int64(len(data)) {
			t.Fatalf("good offset %d out of range [0,%d]", goodOff, len(data))
		}
		// Every accepted record must re-frame and re-decode identically:
		// acceptance implies the frame verified, not just "looked like JSON".
		reenc := new(bytes.Buffer)
		for _, r := range recs {
			if r.Kind == "" {
				t.Fatal("accepted a record with no kind")
			}
			frame, err := Encode(r)
			if err != nil {
				t.Fatalf("re-encode accepted record: %v", err)
			}
			reenc.Write(frame)
		}
		recs2, off2 := Decode(reenc.Bytes())
		if len(recs2) != len(recs) || off2 != int64(reenc.Len()) {
			t.Fatalf("re-decode yielded %d records (offset %d), want %d (%d)", len(recs2), off2, len(recs), reenc.Len())
		}

		// Open on the raw bytes must repair, truncate the tail and stay
		// appendable.
		scanned, _, _ := ScanAll(data)
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("Open on fuzzed bytes: %v", err)
		}
		if got := len(j.Records()); got != len(scanned) {
			t.Fatalf("Open replayed %d records, ScanAll %d", got, len(scanned))
		}
		extra := Record{Kind: "complete", Key: "fuzz", Payload: json.RawMessage(`{"outcome":"aborted"}`)}
		if err := j.Append(extra); err != nil {
			t.Fatalf("append after fuzzed open: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		j2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j2.Close()
		got := j2.Records()
		if len(got) != len(scanned)+1 {
			t.Fatalf("reopen replayed %d records, want %d", len(got), len(scanned)+1)
		}
		if last := got[len(got)-1]; last.Kind != extra.Kind || last.Key != extra.Key {
			t.Fatalf("appended record did not survive: %+v", last)
		}
	})
}

// FuzzScrubRepair feeds arbitrary bytes through the full-file walk and the
// repair rewrite. The contract: ScanAll never panics and its accounting
// tiles the file exactly (records + corrupt regions + torn tail = len);
// repair yields a journal that replays precisely ScanAll's records, scrubs
// clean, and stays appendable.
func FuzzScrubRepair(f *testing.F) {
	good := func(recs ...Record) []byte {
		var buf bytes.Buffer
		for _, r := range recs {
			frame, err := Encode(r)
			if err != nil {
				f.Fatal(err)
			}
			buf.Write(frame)
		}
		return buf.Bytes()
	}
	seed := good(
		Record{Kind: "admit", Key: "j-00000001", Payload: json.RawMessage(`{"kind":"po"}`)},
		Record{Kind: "replay", Key: "j-00000001"},
		Record{Kind: "complete", Key: "j-00000001", Payload: json.RawMessage(`{"outcome":"completed"}`)},
	)
	f.Add([]byte{})
	f.Add(seed)
	f.Add(seed[:len(seed)-5]) // torn tail
	rotted := append([]byte(nil), seed...)
	rotted[12] ^= 0x20 // flip a bit under valid records: mid-file rot
	f.Add(rotted)
	f.Add(append(append([]byte(nil), rotted...), 0xde, 0xad)) // rot + torn tail
	f.Add(bytes.Repeat([]byte{0x41}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, regions, torn := ScanAll(data)
		// Accepted records must verify (no mis-parse into an empty kind),
		// and the accounting must stay inside the file: regions in order,
		// disjoint, never reaching EOF (that is the torn tail's domain).
		for _, r := range recs {
			if r.Kind == "" {
				t.Fatal("accepted a record with no kind")
			}
			if _, err := Encode(r); err != nil {
				t.Fatalf("re-encode accepted record: %v", err)
			}
		}
		prevEnd := int64(0)
		for _, reg := range regions {
			if reg.Length <= 0 || reg.Offset < prevEnd || reg.Offset+reg.Length >= int64(len(data)) {
				t.Fatalf("corrupt region %+v out of range (prev end %d, len %d)", reg, prevEnd, len(data))
			}
			prevEnd = reg.Offset + reg.Length
		}
		if torn < 0 || torn > int64(len(data)) {
			t.Fatalf("torn tail %d out of range [0,%d]", torn, len(data))
		}

		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rep, err := repair(OSFS(), path, data)
		if err != nil {
			t.Fatalf("repair on fuzzed bytes: %v", err)
		}
		if rep.Records != len(recs) || rep.Corrupt != len(regions) || rep.TornBytes != torn {
			t.Fatalf("repair report %+v, want %d records, %d regions, %d torn", rep, len(recs), len(regions), torn)
		}
		j, err := Open(path, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("Open after repair: %v", err)
		}
		got := j.Records()
		if len(got) != len(recs) {
			t.Fatalf("repaired journal replayed %d records, ScanAll found %d", len(got), len(recs))
		}
		for i := range recs {
			if got[i].Kind != recs[i].Kind || got[i].Key != recs[i].Key {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
			}
		}
		if err := j.Append(Record{Kind: "complete", Key: "fuzz"}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		rep2, err := Scrub(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		if rep2.Corrupt != 0 || rep2.TornBytes != 0 || rep2.Records != len(recs)+1 {
			t.Fatalf("post-repair scrub %+v, want %d clean records", rep2, len(recs)+1)
		}
	})
}
