package wfstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/journal"
	"repro/internal/wf"
)

// FileStore is a durable workflow database: every mutation appends one JSON
// record to a log file and is flushed before the call returns; opening the
// store replays the log, so an engine restarted after a crash resumes from
// its last persisted transition (Figure 4's database made durable).
//
// Durability contract: every append is flushed to the OS before the
// mutating call returns, so a process crash never loses an acknowledged
// mutation. What a power loss can take is bounded by the store's fsync
// policy (journal.FsyncPolicy, default FsyncBatched): FsyncAlways fsyncs
// each append, FsyncBatched group-commits an fsync every few appends or
// milliseconds, FsyncNever leaves syncing to the OS entirely. A torn final
// record (an append the crash cut short, recognizable by its missing
// newline terminator) is dropped and truncated at the next open; only that
// one record is lost.
//
// Instance data values are serialized through the codec in codec.go, which
// supports primitives and the normalized document types. Native
// format values (e.g. a decoded IDoc) are transient hub state and must not
// be placed in instance data that reaches a FileStore.
type FileStore struct {
	mu     sync.Mutex
	mem    *MemStore
	fs     journal.FS
	f      journal.File
	w      *bufio.Writer
	path   string
	syncer journal.Syncer
}

type logRecord struct {
	Op       string          `json:"op"` // "type", "inst", "del"
	Type     *wf.TypeDef     `json:"type,omitempty"`
	Instance json.RawMessage `json:"instance,omitempty"`
	ID       string          `json:"id,omitempty"`
}

// OpenFileStore opens (creating if needed) the log at path and replays it,
// with the default batched fsync policy. A torn final record — an append
// cut short by a crash, recognizable by its missing newline terminator —
// is dropped and truncated away; only that one record is lost. Unparseable
// records that were fully written (newline-terminated) are corruption and
// fail the open.
func OpenFileStore(path string) (*FileStore, error) {
	return OpenFileStoreFsync(path, journal.FsyncBatched)
}

// OpenFileStoreFsync is OpenFileStore with an explicit fsync policy (see
// the durability contract in the package comment of this type).
func OpenFileStoreFsync(path string, policy journal.FsyncPolicy) (*FileStore, error) {
	return OpenFileStoreFS(path, policy, nil)
}

// OpenFileStoreFS is OpenFileStoreFsync with an explicit storage seam
// (nil means the real filesystem) — the chaos harness threads a
// journal.FaultFS through it to test the store against a failing disk.
func OpenFileStoreFS(path string, policy journal.FsyncPolicy, fs journal.FS) (*FileStore, error) {
	if fs == nil {
		fs = journal.OSFS()
	}
	s := &FileStore{
		mem:    NewMemStore(),
		fs:     fs,
		path:   path,
		syncer: journal.NewSyncer(policy, 0, 0),
	}
	if data, err := fs.ReadFile(path); err == nil {
		good, rerr := s.replay(data)
		if rerr != nil {
			return nil, fmt.Errorf("wfstore: replay %s: %w", path, rerr)
		}
		if good < len(data) {
			// Physically drop the torn tail before reopening for append:
			// writing after a partial record would fuse it with the next
			// record into garbage.
			if terr := fs.Truncate(path, int64(good)); terr != nil {
				return nil, fmt.Errorf("wfstore: truncate torn tail of %s: %w", path, terr)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("wfstore: open %s: %w", path, err)
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wfstore: open %s: %w", path, err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	return s, nil
}

// replay applies the log records in data and returns the byte offset just
// past the last durable record. Records are durable only once their
// trailing newline hit the file (append writes record+newline in one
// flush), so an unterminated final line is the torn tail of a crashed
// append: it is not replayed and not counted, whatever it contains.
func (s *FileStore) replay(data []byte) (int, error) {
	off := 0
	line := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return off, nil // torn tail
		}
		line++
		raw := data[off : off+nl]
		off += nl + 1
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var rec logRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return off, fmt.Errorf("line %d: %w", line, err)
		}
		switch rec.Op {
		case "type":
			if err := rec.Type.Validate(); err != nil {
				return off, fmt.Errorf("line %d: %w", line, err)
			}
			if err := s.mem.PutType(rec.Type); err != nil {
				return off, err
			}
		case "inst":
			in, err := decodeInstance(rec.Instance)
			if err != nil {
				return off, fmt.Errorf("line %d: %w", line, err)
			}
			if err := s.mem.PutInstance(in); err != nil {
				return off, err
			}
		case "del":
			if err := s.mem.DeleteInstance(rec.ID); err != nil {
				return off, err
			}
		default:
			return off, fmt.Errorf("line %d: unknown op %q", line, rec.Op)
		}
	}
	return off, nil
}

func (s *FileStore) append(rec logRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wfstore: marshal: %w", err)
	}
	if _, err := s.w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("wfstore: append: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("wfstore: flush: %w", err)
	}
	if err := s.syncer.DidAppend(s.f); err != nil {
		return fmt.Errorf("wfstore: fsync: %w", err)
	}
	return nil
}

// Close drains any pending group commit, flushes and closes the log.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.syncer.Flush(s.f); err != nil {
		return err
	}
	return s.f.Close()
}

// Compact rewrites the log to hold exactly one record per live type and
// instance, atomically replacing the old log. Long-running engines call it
// periodically: every instance transition appends a full snapshot, so logs
// grow with activity, not with live state.
func (s *FileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	tmp := s.path + ".compact"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wfstore: compact: %w", err)
	}
	w := bufio.NewWriter(f)
	writeRec := func(rec logRecord) error {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	}
	typeKeys, err := s.mem.ListTypes()
	if err != nil {
		f.Close()
		return err
	}
	for _, key := range typeKeys {
		name, version := splitKey(key)
		def, err := s.mem.GetType(name, version)
		if err != nil {
			f.Close()
			return err
		}
		if err := writeRec(logRecord{Op: "type", Type: def.Clone()}); err != nil {
			f.Close()
			return err
		}
	}
	ids, err := s.mem.ListInstances()
	if err != nil {
		f.Close()
		return err
	}
	for _, id := range ids {
		in, err := s.mem.GetInstance(id)
		if err != nil {
			f.Close()
			return err
		}
		raw, err := encodeInstance(in)
		if err != nil {
			f.Close()
			return err
		}
		if err := writeRec(logRecord{Op: "inst", Instance: raw}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	// Sync the rewrite before the rename makes it the log: the rename must
	// never point the store at a snapshot the disk does not yet hold.
	if err := f.Sync(); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	// Open the future appender on the temp file before the rename (the
	// handle follows the inode across it), so a failure at any point
	// leaves the original log open and appendable.
	nf, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("wfstore: compact reopen: %w", err)
	}
	if err := s.fs.Rename(tmp, s.path); err != nil {
		nf.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("wfstore: compact rename: %w", err)
	}
	_ = s.f.Close()
	s.f = nf
	s.w = bufio.NewWriter(nf)
	return nil
}

// Size reports the current log size in bytes.
func (s *FileStore) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return 0, err
	}
	fi, err := s.fs.Stat(s.path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func splitKey(key string) (string, int) {
	name, ver, _ := strings.Cut(key, "@")
	v := 0
	fmt.Sscanf(ver, "%d", &v)
	return name, v
}

// PutType implements wf.Store.
func (s *FileStore) PutType(t *wf.TypeDef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(logRecord{Op: "type", Type: t.Clone()}); err != nil {
		return err
	}
	return s.mem.PutType(t)
}

// GetType implements wf.Store.
func (s *FileStore) GetType(name string, version int) (*wf.TypeDef, error) {
	return s.mem.GetType(name, version)
}

// HasType implements wf.Store.
func (s *FileStore) HasType(name string, version int) bool {
	return s.mem.HasType(name, version)
}

// ListTypes implements wf.Store.
func (s *FileStore) ListTypes() ([]string, error) { return s.mem.ListTypes() }

// PutInstance implements wf.Store. The snapshot becomes visible to
// GetInstance only once its log record is written: after a failed append
// the store keeps serving the last snapshot its log holds.
func (s *FileStore) PutInstance(in *wf.Instance) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := encodeInstance(in)
	if err != nil {
		return err
	}
	if err := s.append(logRecord{Op: "inst", Instance: raw}); err != nil {
		return err
	}
	return s.mem.PutInstance(in)
}

// GetInstance implements wf.Store.
func (s *FileStore) GetInstance(id string) (*wf.Instance, error) {
	return s.mem.GetInstance(id)
}

// ListInstances implements wf.Store.
func (s *FileStore) ListInstances() ([]string, error) { return s.mem.ListInstances() }

// DeleteInstance implements wf.Store.
func (s *FileStore) DeleteInstance(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(logRecord{Op: "del", ID: id}); err != nil {
		return err
	}
	return s.mem.DeleteInstance(id)
}
