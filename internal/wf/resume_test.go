package wf

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
)

// flakyStore is a minimal in-memory Store whose PutInstance can be set to
// fail for specific instance IDs — the regression harness for persist-error
// propagation out of resumeParentIfDone.
type flakyStore struct {
	types   map[string]*TypeDef
	insts   map[string]*Instance
	failPut map[string]error
}

func newFlakyStore() *flakyStore {
	return &flakyStore{
		types:   map[string]*TypeDef{},
		insts:   map[string]*Instance{},
		failPut: map[string]error{},
	}
}

func (s *flakyStore) PutType(t *TypeDef) error { s.types[t.Name] = t; return nil }
func (s *flakyStore) GetType(name string, version int) (*TypeDef, error) {
	t, ok := s.types[name]
	if !ok {
		return nil, ErrNotFound
	}
	return t, nil
}
func (s *flakyStore) HasType(name string, version int) bool { _, ok := s.types[name]; return ok }
func (s *flakyStore) ListTypes() ([]string, error) {
	var out []string
	for k := range s.types {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}
func (s *flakyStore) PutInstance(in *Instance) error {
	if err := s.failPut[in.ID]; err != nil {
		return err
	}
	s.insts[in.ID] = in
	return nil
}
func (s *flakyStore) GetInstance(id string) (*Instance, error) {
	in, ok := s.insts[id]
	if !ok {
		return nil, ErrNotFound
	}
	return in, nil
}
func (s *flakyStore) ListInstances() ([]string, error) {
	var out []string
	for k := range s.insts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}
func (s *flakyStore) DeleteInstance(id string) error { delete(s.insts, id); return nil }

// TestResumeParentPersistErrorPropagates: when a child's failure is
// propagated to its parent and persisting the failed parent errors, that
// error must surface to the caller (it used to be silently discarded).
func TestResumeParentPersistErrorPropagates(t *testing.T) {
	store := newFlakyStore()
	h := NewHandlers()
	h.Register("boom", func(ctx context.Context, in *Instance, s *StepDef) error {
		return fmt.Errorf("handler fault")
	})
	e := NewEngine("fs", store, h, nil)
	child := &TypeDef{
		Name: "kid",
		Steps: []StepDef{
			{Name: "wait", Kind: StepReceive, Port: "p"},
			{Name: "boom", Kind: StepTask, Handler: "boom"},
		},
		Arcs: []Arc{{From: "wait", To: "boom"}},
	}
	parent := &TypeDef{
		Name:  "mom",
		Steps: []StepDef{{Name: "call", Kind: StepSubworkflow, Subworkflow: "kid"}},
	}
	for _, def := range []*TypeDef{child, parent} {
		if err := e.Deploy(def); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	mom, err := e.Start(ctx, "mom", nil)
	if err != nil {
		t.Fatal(err)
	}
	kidID := mom.Steps["call"].Child
	if kidID == "" {
		t.Fatalf("child not started: %+v", mom.Steps["call"])
	}
	// Deliver makes the child fail on its task step; Deliver itself reports
	// the child's failure.
	if err := e.Deliver(ctx, kidID, "p", "payload"); err == nil {
		t.Fatal("expected child failure from Deliver")
	}
	kid, err := store.GetInstance(kidID)
	if err != nil {
		t.Fatal(err)
	}
	if kid.State != InstFailed {
		t.Fatalf("child state %s", kid.State)
	}

	// Now the parent's durable failure record cannot be written.
	diskFull := errors.New("disk full")
	store.failPut[mom.ID] = diskFull
	err = e.resumeParentIfDone(ctx, kid)
	if !errors.Is(err, diskFull) {
		t.Fatalf("resumeParentIfDone err = %v, want to carry %v", err, diskFull)
	}
	// The store still holds the last persisted parent: the failure it could
	// not write is not visible as if it had been.
	momNow, _ := store.GetInstance(mom.ID)
	if momNow.State != InstRunning || momNow.Steps["call"].State != StepChildRun || momNow.Error != "" {
		t.Fatalf("stored parent state %s, call step %s, error %q; want the last persisted %s parent",
			momNow.State, momNow.Steps["call"].State, momNow.Error, StepChildRun)
	}

	// With a healthy store the same propagation succeeds silently.
	store2 := newFlakyStore()
	e2 := NewEngine("fs2", store2, h, nil)
	for _, def := range []*TypeDef{child.Clone(), parent.Clone()} {
		if err := e2.Deploy(def); err != nil {
			t.Fatal(err)
		}
	}
	mom2, _ := e2.Start(ctx, "mom", nil)
	kid2ID := mom2.Steps["call"].Child
	if err := e2.Deliver(ctx, kid2ID, "p", "x"); err == nil {
		t.Fatal("expected child failure")
	}
	kid2, _ := store2.GetInstance(kid2ID)
	if err := e2.resumeParentIfDone(ctx, kid2); err != nil {
		t.Fatalf("healthy propagation err = %v", err)
	}
	if mom2Now, _ := store2.GetInstance(mom2.ID); mom2Now.State != InstFailed {
		t.Fatalf("parent not failed: %s", mom2Now.State)
	}
}
