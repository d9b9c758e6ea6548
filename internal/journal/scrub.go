// Scrub and repair: the whole-file walk behind Open's recovery rule. A
// bad frame with valid frames after it — bits flipped at rest, or the
// partial frame of a failed append that a later append followed — would
// otherwise cost every record after it. ScanAll resynchronizes past such
// regions to the next frame that passes every check (sane length, CRC
// match, decodable payload); Scrub reports them read-only; repair, run by
// every Open, quarantines them into a sidecar file and atomically
// rewrites the journal to its valid records, so Recover proceeds past the
// damage with a precise account of what was skipped. Cluster takeover
// runs ScanAll over a dead peer's file without modifying it.
//
// Resynchronization is safe against mis-parses: a candidate frame is
// accepted only when its CRC32 matches and its payload is a JSON record
// with a non-empty kind — odds of random bytes passing are ~2^-32 per
// offset, and the hub's payloads never embed journal frames.
package journal

import (
	"encoding/json"
	"fmt"
	"os"
)

// CorruptRegion is one span of undecodable bytes found mid-file: it
// starts where a frame failed its checks and ends where the next valid
// frame begins.
type CorruptRegion struct {
	// Offset is the region's byte offset in the journal file.
	Offset int64 `json:"off"`
	// Length is the region's size in bytes.
	Length int64 `json:"len"`
}

// ScrubReport accounts for one full-file walk.
type ScrubReport struct {
	// Records is how many valid records the walk yielded.
	Records int `json:"records"`
	// Corrupt is how many mid-file corrupt regions were found (and, at
	// open, quarantined).
	Corrupt int `json:"corrupt"`
	// QuarantinedBytes is the total size of those regions.
	QuarantinedBytes int64 `json:"quarantined_bytes"`
	// TornBytes is the size of the trailing bad region, when the file
	// ends in one — a torn tail, handled by truncation as always, never
	// quarantined.
	TornBytes int64 `json:"torn_bytes"`
}

// KindQuarantine is the record kind of quarantine sidecar entries.
const KindQuarantine = "quarantine"

// QuarantinePath is where Open parks corrupt regions cut from path.
func QuarantinePath(path string) string { return path + ".quarantine" }

// quarantinePayload is one quarantined region's sidecar payload.
type quarantinePayload struct {
	// Offset is the region's offset in the journal it was cut from.
	Offset int64 `json:"off"`
	// Bytes is the region's raw content.
	Bytes []byte `json:"b"`
}

// ScanAll walks data for framed records like Decode, but instead of
// stopping at the first bad frame it resynchronizes: it scans forward for
// the next offset where a full frame passes every check, reports the
// skipped span as a CorruptRegion, and continues. A bad region that
// reaches EOF is a torn tail (returned as the byte count), not a corrupt
// region — that is the one case a crashed appender produces, and it keeps
// its truncation semantics.
func ScanAll(data []byte) ([]Record, []CorruptRegion, int64) {
	var recs []Record
	var regions []CorruptRegion
	off := int64(0)
	for off < int64(len(data)) {
		rec, end, ok := decodeFrame(data, off)
		if ok {
			recs = append(recs, rec)
			off = end
			continue
		}
		// Bad frame at off: hunt for the next valid one.
		resync := int64(-1)
		for cand := off + 1; int(cand)+headerSize <= len(data); cand++ {
			if _, _, ok := decodeFrame(data, cand); ok {
				resync = cand
				break
			}
		}
		if resync < 0 {
			return recs, regions, int64(len(data)) - off
		}
		regions = append(regions, CorruptRegion{Offset: off, Length: resync - off})
		off = resync
	}
	return recs, regions, 0
}

// Scrub reads path (on fs; nil means the real filesystem) and reports
// every valid record, corrupt region and torn tail without modifying
// anything. A missing file scrubs clean.
func Scrub(fs FS, path string) (ScrubReport, error) {
	if fs == nil {
		fs = OSFS()
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ScrubReport{}, nil
		}
		return ScrubReport{}, fmt.Errorf("journal: scrub %s: %w", path, err)
	}
	recs, regions, torn := ScanAll(data)
	return report(recs, regions, torn), nil
}

// repair applies Open's recovery rule to data, path's current content,
// and returns the valid records with the walk's report. When ScanAll
// finds mid-file corrupt regions, each region's raw bytes are appended to
// the quarantine sidecar (path+".quarantine", itself a framed journal of
// KindQuarantine records) and fsynced, then path is atomically rewritten
// to the valid records (temp file, fsync, rename). A clean or merely
// torn-tailed file is left untouched: truncating a torn tail is Open's
// step. A crash mid-repair is safe in both windows: before the rename the
// damaged file is intact (the next open re-quarantines, duplicating
// sidecar entries at worst), after it the file is clean.
func repair(fs FS, path string, data []byte) ([]Record, ScrubReport, error) {
	recs, regions, torn := ScanAll(data)
	rep := report(recs, regions, torn)
	if len(regions) == 0 {
		return recs, rep, nil
	}
	if err := quarantine(fs, path, data, regions); err != nil {
		return nil, rep, err
	}
	tmp := path + ".repair"
	if err := writeFile(fs, tmp, recs); err != nil {
		return nil, rep, fmt.Errorf("journal: repair %s: %w", path, err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		_ = fs.Remove(tmp)
		return nil, rep, fmt.Errorf("journal: repair rename %s: %w", path, err)
	}
	return recs, rep, nil
}

// quarantine appends each corrupt region to the sidecar and fsyncs it
// before the journal rewrite may drop the bytes.
func quarantine(fs FS, path string, data []byte, regions []CorruptRegion) error {
	qp := QuarantinePath(path)
	var buf []byte
	for _, r := range regions {
		payload, err := json.Marshal(quarantinePayload{
			Offset: r.Offset,
			Bytes:  data[r.Offset : r.Offset+r.Length],
		})
		if err != nil {
			return fmt.Errorf("journal: quarantine %s: %w", qp, err)
		}
		buf, err = appendFrame(buf, Record{
			Kind:    KindQuarantine,
			Key:     fmt.Sprintf("%d", r.Offset),
			Payload: payload,
		})
		if err != nil {
			return err
		}
	}
	f, err := fs.OpenFile(qp, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		err = writeSyncClose(f, buf)
	}
	if err != nil {
		return fmt.Errorf("journal: quarantine %s: %w", qp, err)
	}
	return nil
}

func report(recs []Record, regions []CorruptRegion, torn int64) ScrubReport {
	rep := ScrubReport{Records: len(recs), Corrupt: len(regions), TornBytes: torn}
	for _, r := range regions {
		rep.QuarantinedBytes += r.Length
	}
	return rep
}
