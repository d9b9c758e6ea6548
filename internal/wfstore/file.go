package wfstore

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/journal"
	"repro/internal/wf"
)

// FileStore is a durable workflow database: every mutation appends one
// record to a journal.Journal before the call returns, and opening the
// store replays the journal, so an engine restarted after a crash resumes
// from its last persisted transition (Figure 4's database made durable).
//
// The store keeps the hub's log format and its one recovery rule (see
// package journal): CRC-framed records, a torn final frame truncated at
// open, and damage with valid frames after it quarantined to the
// .quarantine sidecar, never served and never hiding the records behind
// it. A record that passes its CRC but means nothing to the store (an
// unknown kind, a type that fails Validate, an instance that does not
// decode) fails the open.
//
// Durability contract: the journal's. Every append reaches the OS before
// the mutating call returns, so a process crash never loses an
// acknowledged mutation; the fsync policy (journal.Options.Fsync, default
// FsyncBatched) bounds what a power loss can take. A failed append voids
// only its own record: the store keeps serving the last durable snapshot,
// and appends succeed again once the disk heals.
//
// Instance data values are serialized through the codec in codec.go, which
// supports primitives and the normalized document types. Native
// format values (e.g. a decoded IDoc) are transient hub state and must not
// be placed in instance data that reaches a FileStore.
type FileStore struct {
	// mu orders each append with its in-memory update, so memory and
	// the log agree on the last write to every key.
	mu  sync.Mutex
	mem *MemStore
	j   *journal.Journal
}

// Record kinds of the store's journal. A type record is keyed by
// TypeDef.Key and carries the type's JSON; an instance record is keyed
// by the instance ID and carries encodeInstance's JSON; a delete record
// carries only the instance ID.
const (
	recType = "type"
	recInst = "inst"
	recDel  = "del"
)

// OpenFileStore opens (creating if needed) the store's journal at path
// and replays it. opts selects the fsync policy and the storage seam.
func OpenFileStore(path string, opts journal.Options) (*FileStore, error) {
	j, err := journal.Open(path, opts)
	if err != nil {
		return nil, fmt.Errorf("wfstore: %w", err)
	}
	s := &FileStore{mem: NewMemStore(), j: j}
	for _, rec := range j.Records() {
		if err := s.replay(rec); err != nil {
			j.Close()
			return nil, fmt.Errorf("wfstore: replay %s: %s record %q: %w", path, rec.Kind, rec.Key, err)
		}
	}
	return s, nil
}

// replay applies one journal record to memory.
func (s *FileStore) replay(rec journal.Record) error {
	switch rec.Kind {
	case recType:
		def := &wf.TypeDef{}
		if err := json.Unmarshal(rec.Payload, def); err != nil {
			return err
		}
		if err := def.Validate(); err != nil {
			return err
		}
		return s.mem.PutType(def)
	case recInst:
		in, err := decodeInstance(rec.Payload)
		if err != nil {
			return err
		}
		return s.mem.PutInstance(in)
	case recDel:
		return s.mem.DeleteInstance(rec.Key)
	}
	return fmt.Errorf("unknown record kind")
}

func typeRecord(t *wf.TypeDef) (journal.Record, error) {
	payload, err := json.Marshal(t)
	if err != nil {
		return journal.Record{}, fmt.Errorf("wfstore: type %s: %w", t.Key(), err)
	}
	return journal.Record{Kind: recType, Key: t.Key(), Payload: payload}, nil
}

func instanceRecord(in *wf.Instance) (journal.Record, error) {
	raw, err := encodeInstance(in)
	if err != nil {
		return journal.Record{}, err
	}
	return journal.Record{Kind: recInst, Key: in.ID, Payload: raw}, nil
}

// append logs rec. Callers hold s.mu and update memory only once it
// succeeds, so a failed append leaves the last durable state visible.
func (s *FileStore) append(rec journal.Record) error {
	if err := s.j.Append(rec); err != nil {
		return fmt.Errorf("wfstore: %w", err)
	}
	return nil
}

// Close drains any pending group commit and closes the log.
func (s *FileStore) Close() error { return s.j.Close() }

// Compact rewrites the log to hold exactly one record per live type and
// instance through journal.Compact, which replaces the old log atomically
// and leaves it open and appendable on any failure. Long-running engines
// call it periodically: every instance transition appends a full
// snapshot, so logs grow with activity, not with live state.
func (s *FileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	types, instances := s.mem.live()
	live := make([]journal.Record, 0, len(types)+len(instances))
	for _, t := range types {
		rec, err := typeRecord(t)
		if err != nil {
			return err
		}
		live = append(live, rec)
	}
	for _, in := range instances {
		rec, err := instanceRecord(in)
		if err != nil {
			return err
		}
		live = append(live, rec)
	}
	return s.j.Compact(live)
}

// Size reports the current log size in bytes.
func (s *FileStore) Size() (int64, error) { return s.j.Size() }

// PutType implements wf.Store.
func (s *FileStore) PutType(t *wf.TypeDef) error {
	rec, err := typeRecord(t)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(rec); err != nil {
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
	rec, err := instanceRecord(in)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(rec); err != nil {
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
	if err := s.append(journal.Record{Kind: recDel, Key: id}); err != nil {
		return err
	}
	return s.mem.DeleteInstance(id)
}
