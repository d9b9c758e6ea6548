package wf

import (
	"context"
	"errors"
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

// TestResumeParentPersistErrorPropagates: when a child fails inside
// Deliver and persisting its failed parent errors, Deliver's error carries
// both the child's fault and the disk error, and the store keeps the last
// parent it could write.
func TestResumeParentPersistErrorPropagates(t *testing.T) {
	store := newFlakyStore()
	h := NewHandlers()
	handlerFault := errors.New("handler fault")
	h.Register("boom", func(ctx context.Context, in *Instance, s *StepDef) error {
		return handlerFault
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
	kidID := runOf(mom, "call").Child
	if kidID == "" {
		t.Fatalf("child not started: %+v", runOf(mom, "call"))
	}

	// The parent's durable failure record cannot be written.
	diskFull := errors.New("disk full")
	store.failPut[mom.ID] = diskFull
	err = e.Deliver(ctx, kidID, "p", "payload")
	if !errors.Is(err, handlerFault) || !errors.Is(err, diskFull) {
		t.Fatalf("Deliver err = %v, want to carry %v and %v", err, handlerFault, diskFull)
	}
	kid, err := store.GetInstance(kidID)
	if err != nil {
		t.Fatal(err)
	}
	if kid.State != InstFailed {
		t.Fatalf("child state %s", kid.State)
	}
	// The store still holds the last persisted parent: the failure it could
	// not write is not visible as if it had been.
	momNow, _ := store.GetInstance(mom.ID)
	if momNow.State != InstRunning || momNow.StepStateOf("call") != StepChildRun || momNow.Error != "" {
		t.Fatalf("stored parent state %s, call step %s, error %q; want the last persisted %s parent",
			momNow.State, momNow.StepStateOf("call"), momNow.Error, StepChildRun)
	}
}

// TestChildFailureFailsParent: a child that fails inside Deliver or Expire
// fails its parked parent, exactly as a child that fails during Start does,
// and the caller still sees the child's fault.
func TestChildFailureFailsParent(t *testing.T) {
	fault := errors.New("task fault")
	child := &TypeDef{
		Name: "kid",
		Steps: []StepDef{
			{Name: "wait", Kind: StepReceive, Port: "p", OnTimeout: "late"},
			{Name: "work", Kind: StepTask, Handler: "fail"},
			{Name: "late", Kind: StepTask, Handler: "fail"},
		},
		Arcs: []Arc{{From: "wait", To: "work"}},
	}
	parent := &TypeDef{
		Name:  "mom",
		Steps: []StepDef{{Name: "call", Kind: StepSubworkflow, Subworkflow: "kid"}},
	}
	for _, tc := range []struct {
		name string
		poke func(ctx context.Context, e *Engine, kidID string) error
	}{
		{"deliver", func(ctx context.Context, e *Engine, kidID string) error {
			return e.Deliver(ctx, kidID, "p", "payload")
		}},
		{"expire", func(ctx context.Context, e *Engine, kidID string) error {
			return e.Expire(ctx, kidID, "wait")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := newFlakyStore()
			h := NewHandlers()
			h.Register("fail", func(ctx context.Context, in *Instance, s *StepDef) error {
				return fault
			})
			e := NewEngine("fs", store, h, nil)
			for _, def := range []*TypeDef{child.Clone(), parent.Clone()} {
				if err := e.Deploy(def); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			mom, err := e.Start(ctx, "mom", nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.poke(ctx, e, runOf(mom, "call").Child); !errors.Is(err, fault) {
				t.Fatalf("err = %v, want the child's %v", err, fault)
			}
			momNow, err := store.GetInstance(mom.ID)
			if err != nil {
				t.Fatal(err)
			}
			if momNow.State != InstFailed || momNow.StepStateOf("call") != StepFailed {
				t.Fatalf("parent state %s, call step %s; want failed/failed", momNow.State, momNow.StepStateOf("call"))
			}
		})
	}
}

// runOf returns the named step's run (the zero run when the instance has
// no such step).
func runOf(in *Instance, name string) StepRun {
	run, _ := in.StepRunOf(name)
	return run
}
