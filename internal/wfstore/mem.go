// Package wfstore provides the workflow database of the paper's Figure 4:
// persistent storage for workflow types and workflow instances, backing the
// workflow engine. Two implementations are provided: an in-memory store for
// simulations and benchmarks, and a durable append-log store with crash
// recovery for deployments that need to survive restarts.
//
// The store holds workflow TYPES and INSTANCES only. Compiled execution
// plans (wf.Plan) are deliberately not part of the schema: a plan is a
// deterministic derivation of a type plus the engine's environment (handler
// registry, port checker), so persisting it would only create a second
// source of truth that can drift. An engine restarted over this store
// recompiles plans lazily from the persisted types.
package wfstore

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/wf"
)

// MemStore is an in-memory workflow database. It is safe for concurrent
// use. It keeps the instance PutInstance is given and returns that same
// object from GetInstance without copying: under wf.Store's contract a
// stored snapshot is immutable, so every reader may share it (the engine
// advances a copy and stores the copy as the next snapshot).
type MemStore struct {
	mu        sync.RWMutex
	types     map[typeKey]*wf.TypeDef
	latest    map[string]int // name → max version
	instances map[string]*wf.Instance
}

// typeKey identifies a type version; a struct key spares every lookup the
// "name@version" string.
type typeKey struct {
	name    string
	version int
}

// NewMemStore returns an empty in-memory workflow database.
func NewMemStore() *MemStore {
	return &MemStore{
		types:     map[typeKey]*wf.TypeDef{},
		latest:    map[string]int{},
		instances: map[string]*wf.Instance{},
	}
}

// PutType implements wf.Store.
func (s *MemStore) PutType(t *wf.TypeDef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.types[typeKey{t.Name, t.Version}] = t
	if t.Version > s.latest[t.Name] {
		s.latest[t.Name] = t.Version
	}
	return nil
}

// GetType implements wf.Store; version 0 loads the latest version.
func (s *MemStore) GetType(name string, version int) (*wf.TypeDef, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if version == 0 {
		version = s.latest[name]
	}
	t, ok := s.types[typeKey{name, version}]
	if !ok {
		return nil, fmt.Errorf("%w: type %s@%d", wf.ErrNotFound, name, version)
	}
	return t, nil
}

// HasType implements wf.Store.
func (s *MemStore) HasType(name string, version int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if version == 0 {
		version = s.latest[name]
	}
	_, ok := s.types[typeKey{name, version}]
	return ok
}

// ListTypes implements wf.Store.
func (s *MemStore) ListTypes() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.types))
	for _, t := range s.types {
		out = append(out, t.Key())
	}
	sort.Strings(out)
	return out, nil
}

// PutInstance implements wf.Store.
func (s *MemStore) PutInstance(in *wf.Instance) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.instances[in.ID] = in
	return nil
}

// GetInstance implements wf.Store.
func (s *MemStore) GetInstance(id string) (*wf.Instance, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	in, ok := s.instances[id]
	if !ok {
		return nil, fmt.Errorf("%w: instance %s", wf.ErrNotFound, id)
	}
	return in, nil
}

// ListInstances implements wf.Store.
func (s *MemStore) ListInstances() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.instances))
	for k := range s.instances {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// DeleteInstance implements wf.Store.
func (s *MemStore) DeleteInstance(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.instances, id)
	return nil
}
