// Package cfgstore implements the versioned configuration store behind the
// hub's runtime change management (paper Section 4.5/4.6 at runtime): the
// ConfigStore half holds every deployed version of every integration
// artifact as an immutable record, and the StateStore half holds the
// mutable part — which version of each artifact is active, and the
// monotonically increasing config epoch that stamps each change.
//
// The split is what makes non-draining hot-swap safe: an in-flight exchange
// pins the epoch and active-version set it admitted under (a Snapshot) and
// finishes on those versions even if the active pointers move mid-flight,
// because registered versions are never deleted or mutated. New admissions
// read the new pointers. Rollback is just moving an active pointer back to
// a still-registered version — another epoch, never an un-deploy.
package cfgstore

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
)

// Class partitions artifacts by their role in the integration model.
type Class string

// The artifact classes of the advanced model: the four process kinds plus
// the two non-workflow artifact kinds (transform programs, rule sets).
const (
	ClassPublicProcess  Class = "public-process"
	ClassBinding        Class = "binding"
	ClassPrivateProcess Class = "private-process"
	ClassAppBinding     Class = "app-binding"
	ClassTransform      Class = "transform"
	ClassRules          Class = "rules"
)

// Key identifies one artifact across its versions.
type Key struct {
	Class Class
	Name  string
}

// String renders the key for events and errors.
func (k Key) String() string { return string(k.Class) + ":" + k.Name }

// Version is one immutable registered version of an artifact.
type Version struct {
	// Version is the artifact's version number (workflow TypeDef.Version
	// for process artifacts, a store-assigned counter otherwise).
	Version int
	// Epoch is the config epoch at which this version was registered.
	Epoch int64
	// Note records why ("swap", "canary", "seed", ...), for history output.
	Note string
}

// artifact is the store's record for one Key. A change replaces the
// record and never writes its versions in place, so clones share them.
type artifact struct {
	versions []Version // ascending by Version, append-only
	active   int       // active version number (StateStore half)
}

// Store is the versioned config store. The zero value is not ready; use New.
// Store is safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	epoch int64
	arts  map[Key]artifact
	keys  []Key // registration order, for deterministic listings
}

// New creates an empty store at epoch 0.
func New() *Store { return &Store{arts: map[Key]artifact{}} }

// Epoch returns the current config epoch.
func (s *Store) Epoch() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Register records a new immutable version of the artifact and makes it
// active, bumping the config epoch. The version must be strictly greater
// than every version already registered for the key — versions are never
// replaced. It returns the new epoch.
func (s *Store) Register(class Class, name string, version int, note string) (int64, error) {
	return s.add(class, name, version, note, true)
}

// Stage records a new immutable version without activating it: the active
// pointer (and all admission-time snapshots) stay on the incumbent. This is
// the deploy half of a canary — the candidate exists and is startable, but
// only explicitly routed traffic reaches it. Staging still bumps the epoch
// so the change is journaled and observable.
func (s *Store) Stage(class Class, name string, version int, note string) (int64, error) {
	return s.add(class, name, version, note, false)
}

func (s *Store) add(class Class, name string, version int, note string, activate bool) (int64, error) {
	if name == "" {
		return 0, fmt.Errorf("cfgstore: artifact of class %q has no name", class)
	}
	if version <= 0 {
		return 0, fmt.Errorf("cfgstore: %s:%s version %d must be positive", class, name, version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := Key{class, name}
	a, ok := s.arts[k]
	for _, v := range a.versions {
		if v.Version >= version {
			return 0, fmt.Errorf("cfgstore: %s:%s version %d already registered (have %d); versions are immutable",
				class, name, version, v.Version)
		}
	}
	if !ok {
		s.keys = append(s.keys, k)
	}
	s.epoch++
	a.versions = append(slices.Clip(a.versions), Version{Version: version, Epoch: s.epoch, Note: note})
	if activate || a.active == 0 {
		a.active = version
	}
	s.arts[k] = a
	return s.epoch, nil
}

// Activate moves the active pointer to an already-registered version —
// promotion (forward) or rollback (backward) — bumping the epoch. It is a
// no-op error to activate an unregistered version: rollback can only land
// on config that actually existed.
func (s *Store) Activate(class Class, name string, version int, note string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := Key{class, name}
	a, ok := s.arts[k]
	if !ok {
		return 0, fmt.Errorf("cfgstore: unknown artifact %s:%s", class, name)
	}
	found := false
	for _, v := range a.versions {
		if v.Version == version {
			found = true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("cfgstore: %s:%s has no registered version %d", class, name, version)
	}
	s.epoch++
	a.active = version
	s.arts[k] = a
	_ = note
	return s.epoch, nil
}

// Active returns the active version of the artifact (0, false if unknown).
func (s *Store) Active(class Class, name string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.arts[Key{class, name}]
	return a.active, ok
}

// History lists the registered versions of the artifact in ascending order.
func (s *Store) History(class Class, name string) []Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.arts[Key{class, name}]
	if !ok {
		return nil
	}
	out := make([]Version, len(a.versions))
	copy(out, a.versions)
	return out
}

// LiveVersions counts registered versions across all artifacts — the
// "live versions" gauge (every registered version is startable forever).
func (s *Store) LiveVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, a := range s.arts {
		n += len(a.versions)
	}
	return n
}

// Artifacts counts distinct artifacts.
func (s *Store) Artifacts() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.arts)
}

// Clone returns a copy of the store that later registrations and
// activations do not reach: the hub changes a clone and publishes it
// whole, so a published store is never written again. Records are
// replaced, never written in place, so the copy shares them.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Store{epoch: s.epoch, arts: maps.Clone(s.arts), keys: slices.Clip(s.keys)}
}

// Snapshot is an atomic admission-time capture of the StateStore: the epoch
// and every active version. An exchange resolves all its artifact versions
// from one Snapshot, so it can never observe half of a swap.
type Snapshot struct {
	Epoch  int64
	Active map[Key]int
}

// Snapshot captures the current epoch and active-version set atomically.
func (s *Store) Snapshot() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn := Snapshot{Epoch: s.epoch, Active: make(map[Key]int, len(s.arts))}
	for k, a := range s.arts {
		sn.Active[k] = a.active
	}
	return sn
}

// Version returns the snapshot's active version for the artifact, or 0
// (meaning "latest") when the artifact is not under version management.
func (sn Snapshot) Version(class Class, name string) int {
	if sn.Active == nil {
		return 0
	}
	return sn.Active[Key{class, name}]
}

// Keys lists managed artifact keys sorted by class then name.
func (s *Store) Keys() []Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Key, len(s.keys))
	copy(out, s.keys)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Name < out[j].Name
	})
	return out
}
