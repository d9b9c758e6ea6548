package wf_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/wf"
	"repro/internal/wfstore"
)

// --- compile-time defect classes -------------------------------------------

func planErrs(t *testing.T, err error) wf.PlanErrors {
	t.Helper()
	var perrs wf.PlanErrors
	if !errors.As(err, &perrs) {
		t.Fatalf("err = %v, want PlanErrors", err)
	}
	return perrs
}

func TestCompileRejectsUnvalidated(t *testing.T) {
	def := &wf.TypeDef{
		Name:  "raw",
		Steps: []wf.StepDef{{Name: "a", Kind: wf.StepNoop}},
	}
	// Neither the original nor a Clone has compiled state before Validate.
	for _, d := range []*wf.TypeDef{def, def.Clone()} {
		if _, err := wf.Compile(d, wf.CompileDeps{}); err == nil ||
			!strings.Contains(err.Error(), "not validated") {
			t.Fatalf("Compile(unvalidated) err = %v, want 'not validated'", err)
		}
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Compile(def, wf.CompileDeps{}); err != nil {
		t.Fatalf("Compile(validated) err = %v", err)
	}
	// A Clone drops the compiled state again (the documented contract).
	if _, err := wf.Compile(def.Clone(), wf.CompileDeps{}); err == nil {
		t.Fatal("Compile(clone) should reject until the clone is re-validated")
	}
}

func TestPlanErrorUnknownHandler(t *testing.T) {
	def := &wf.TypeDef{
		Name: "uh",
		Steps: []wf.StepDef{
			{Name: "known", Kind: wf.StepTask, Handler: "ok"},
			{Name: "ghost1", Kind: wf.StepTask, Handler: "nope"},
			{Name: "ghost2", Kind: wf.StepTask, Handler: "nada"},
		},
		Arcs: []wf.Arc{{From: "known", To: "ghost1"}, {From: "ghost1", To: "ghost2"}},
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	h := wf.NewHandlers()
	h.Register("ok", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	_, err := wf.Compile(def, wf.CompileDeps{Handlers: h})
	perrs := planErrs(t, err)
	if got := perrs.ByClass(wf.PlanUnknownHandler); len(got) != 2 {
		t.Fatalf("unknown-handler errors = %v, want 2", perrs)
	}
	// Without a registry the check is skipped (lookup happens at runtime).
	if _, err := wf.Compile(def, wf.CompileDeps{}); err != nil {
		t.Fatalf("Compile without registry err = %v", err)
	}
}

// TestLazyCompile: a type that reaches the store without passing through
// this engine's Deploy (a migrated type, a reopened store) compiles on first
// use. That compilation is observed and cached like a deploy-time one, and
// a type that fails it is refused with typed PlanErrors before any instance
// exists.
func TestLazyCompile(t *testing.T) {
	store := wfstore.NewMemStore()
	for _, def := range []*wf.TypeDef{
		{Name: "good", Version: 1, Steps: []wf.StepDef{{Name: "a", Kind: wf.StepTask, Handler: "known"}}},
		{Name: "bad", Version: 1, Steps: []wf.StepDef{{Name: "a", Kind: wf.StepTask, Handler: "ghost"}}},
	} {
		if err := def.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := store.PutType(def); err != nil {
			t.Fatal(err)
		}
	}
	h := wf.NewHandlers()
	h.Register("known", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	e := wf.NewEngine("lazy", store, h, nil)
	observed := map[string][]error{}
	e.SetPlanObserver(func(def *wf.TypeDef, p *wf.Plan, elapsed time.Duration, err error) {
		observed[def.Key()] = append(observed[def.Key()], err)
	})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		in, err := e.Start(ctx, "good", nil)
		if err != nil || in.State != wf.InstCompleted {
			t.Fatalf("good start %d: %v", i, err)
		}
	}
	if errs := observed["good@1"]; len(errs) != 1 || errs[0] != nil {
		t.Fatalf("good@1 compilations observed: %v, want one successful", errs)
	}
	if _, ok := e.PlanFor("good", 1); !ok {
		t.Fatal("lazily compiled plan not cached")
	}

	for i := 0; i < 2; i++ {
		in, err := e.Start(ctx, "bad", nil)
		if len(planErrs(t, err).ByClass(wf.PlanUnknownHandler)) != 1 {
			t.Fatalf("bad start %d: err = %v, want one unknown-handler", i, err)
		}
		if in != nil {
			t.Fatalf("bad start %d returned instance %s", i, in.ID)
		}
	}
	// An instance of the bad type that arrived with it (a migrated one) is
	// refused the same way and left as it was stored.
	migrated := &wf.Instance{
		ID: "elsewhere-000001", Type: "bad", Version: 1, State: wf.InstRunning,
		Data: map[string]any{},
	}
	migrated.SetRuns(map[string]wf.StepRun{"a": {State: wf.StepWaiting}}, nil)
	if err := store.PutInstance(migrated); err != nil {
		t.Fatal(err)
	}
	for op, err := range map[string]error{
		"deliver": e.Deliver(ctx, migrated.ID, "p", "x"),
		"expire":  e.Expire(ctx, migrated.ID, "a"),
	} {
		if len(planErrs(t, err).ByClass(wf.PlanUnknownHandler)) != 1 {
			t.Fatalf("%s: err = %v, want one unknown-handler", op, err)
		}
	}
	if got, _ := store.GetInstance(migrated.ID); got != migrated {
		t.Fatal("refused instance was replaced in the store")
	}
	if errs := observed["bad@1"]; len(errs) != 1 || errs[0] == nil {
		t.Fatalf("bad@1 compilations observed: %v, want one failed", errs)
	}
	if n := e.CompiledPlans(); n != 2 {
		t.Fatalf("CompiledPlans = %d, want 2 (one per type)", n)
	}
	// The refusals allocated no instance ID and stored nothing.
	if in, err := e.Start(ctx, "good", nil); err != nil || in.ID != "lazy-000003" {
		t.Fatalf("start after refusals: %v, %v; want instance lazy-000003", in, err)
	}
	ids, err := store.ListInstances()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("stored instances %v, want the three good ones and the migrated one", ids)
	}
}

func TestPlanErrorUnroutablePort(t *testing.T) {
	def := &wf.TypeDef{
		Name: "up",
		Steps: []wf.StepDef{
			{Name: "out ok", Kind: wf.StepSend, Port: "good"},
			{Name: "out bad", Kind: wf.StepSend, Port: "bad"},
			{Name: "in bad", Kind: wf.StepReceive, Port: "bad"},
		},
		Arcs: []wf.Arc{{From: "out ok", To: "out bad"}, {From: "out bad", To: "in bad"}},
	}
	checker := func(s *wf.StepDef) error {
		if s.Port != "good" {
			return fmt.Errorf("port %q is not routable", s.Port)
		}
		return nil
	}
	e := wf.NewEngine("up", wfstore.NewMemStore(), nil,
		func(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error { return nil },
		wf.WithPortChecker(checker))
	err := e.Deploy(def)
	perrs := planErrs(t, err)
	if got := perrs.ByClass(wf.PlanUnroutablePort); len(got) != 2 {
		t.Fatalf("unroutable-port errors = %v, want 2", perrs)
	}
	for _, pe := range perrs {
		if !strings.Contains(pe.Error(), "not routable") {
			t.Fatalf("error detail lost: %v", pe)
		}
	}
}

func TestPlanErrorUnsatisfiableJoin(t *testing.T) {
	def := &wf.TypeDef{
		Name: "uj",
		Steps: []wf.StepDef{
			{Name: "route", Kind: wf.StepNoop},
			{Name: "join", Kind: wf.StepNoop, Join: wf.JoinAll},
		},
		Arcs: []wf.Arc{
			{From: "route", To: "join", Condition: `kind == "po"`},
			{From: "route", To: "join", Condition: `kind == "invoice"`},
		},
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err := wf.Compile(def, wf.CompileDeps{})
	perrs := planErrs(t, err)
	if got := perrs.ByClass(wf.PlanUnsatisfiableJoin); len(got) != 1 {
		t.Fatalf("unsatisfiable-join errors = %v, want 1", perrs)
	}

	// The same shape with JoinAny is fine — it is the standard XOR route.
	ok := def.Clone()
	ok.Steps[1].Join = wf.JoinAny
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Compile(ok, wf.CompileDeps{}); err != nil {
		t.Fatalf("JoinAny variant rejected: %v", err)
	}

	// A single constant-false arc into a JoinAll is also fine: dead-path
	// elimination handles it (it is how branches that may never run are
	// modeled), only contradictory requirements are a defect.
	dead := &wf.TypeDef{
		Name: "dead-arc",
		Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepNoop},
			{Name: "b", Kind: wf.StepNoop},
		},
		Arcs: []wf.Arc{{From: "a", To: "b", Condition: "false"}},
	}
	if err := dead.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Compile(dead, wf.CompileDeps{}); err != nil {
		t.Fatalf("constant-false arc rejected: %v", err)
	}
}

func TestPlanErrorUnreachableStep(t *testing.T) {
	// The guard's join can never fire (constant-false arc into a JoinAll),
	// so it never waits, so its timeout branch can neither activate nor be
	// retired: every instance would hang with the branch forever pending.
	def := &wf.TypeDef{
		Name: "ur",
		Steps: []wf.StepDef{
			{Name: "start", Kind: wf.StepNoop},
			{Name: "guard", Kind: wf.StepReceive, Port: "p", OnTimeout: "branch"},
			{Name: "branch", Kind: wf.StepNoop},
		},
		Arcs: []wf.Arc{{From: "start", To: "guard", Condition: "false"}},
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err := wf.Compile(def, wf.CompileDeps{})
	perrs := planErrs(t, err)
	got := perrs.ByClass(wf.PlanUnreachableStep)
	if len(got) != 1 || got[0].Step != "branch" {
		t.Fatalf("unreachable-step errors = %v, want 1 on \"branch\"", perrs)
	}

	// With a satisfiable guard the same shape compiles.
	ok := def.Clone()
	ok.Arcs[0].Condition = ""
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Compile(ok, wf.CompileDeps{}); err != nil {
		t.Fatalf("live guard variant rejected: %v", err)
	}
}

func TestPlanErrorDeadTimeoutBranch(t *testing.T) {
	def := &wf.TypeDef{
		Name: "dt",
		Steps: []wf.StepDef{
			{Name: "wait", Kind: wf.StepReceive, Port: "p", OnTimeout: "late"},
			{Name: "late", Kind: wf.StepNoop},
		},
		// The branch is also on the guard's normal continuation: it would be
		// retired as "guard completed in time" exactly when it should run.
		Arcs: []wf.Arc{{From: "wait", To: "late"}},
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err := wf.Compile(def, wf.CompileDeps{})
	perrs := planErrs(t, err)
	got := perrs.ByClass(wf.PlanDeadTimeoutBranch)
	if len(got) != 1 || got[0].Step != "late" {
		t.Fatalf("dead-timeout-branch errors = %v, want 1 on \"late\"", perrs)
	}
}

// TestPlanErrorsAggregate: one compilation reports every defect, and Deploy
// surfaces them as a typed error.
func TestPlanErrorsAggregate(t *testing.T) {
	def := &wf.TypeDef{
		Name: "multi",
		Steps: []wf.StepDef{
			{Name: "t", Kind: wf.StepTask, Handler: "ghost"},
			{Name: "s", Kind: wf.StepSend, Port: "nowhere"},
			{Name: "j", Kind: wf.StepNoop, Join: wf.JoinAll},
		},
		Arcs: []wf.Arc{
			{From: "t", To: "j", Condition: "n == 1"},
			{From: "t", To: "j", Condition: "n == 2"},
			{From: "t", To: "s"},
		},
	}
	e := wf.NewEngine("multi", wfstore.NewMemStore(), wf.NewHandlers(),
		func(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error { return nil },
		wf.WithPortChecker(func(s *wf.StepDef) error { return fmt.Errorf("no route to %q", s.Port) }))
	err := e.Deploy(def)
	perrs := planErrs(t, err)
	for _, class := range []wf.PlanErrorClass{
		wf.PlanUnknownHandler, wf.PlanUnroutablePort, wf.PlanUnsatisfiableJoin,
	} {
		if len(perrs.ByClass(class)) != 1 {
			t.Fatalf("class %s missing from %v", class, perrs)
		}
	}
	// The rejected type is not deployed.
	if _, err := e.Start(context.Background(), "multi", nil); err == nil {
		t.Fatal("rejected type should not be startable")
	}
	if _, ok := e.PlanFor("multi", 1); ok {
		t.Fatal("rejected type should not have a cached plan")
	}
}

// TestDeterministicValidateErrors pins the golden error text of a cyclic
// type: checkAcyclic visits roots in declaration order, so the same defect
// always reports the same cycle.
func TestDeterministicValidateErrors(t *testing.T) {
	build := func() *wf.TypeDef {
		return &wf.TypeDef{
			Name: "cyc",
			Steps: []wf.StepDef{
				{Name: "c", Kind: wf.StepNoop},
				{Name: "a", Kind: wf.StepNoop},
				{Name: "b", Kind: wf.StepNoop},
			},
			Arcs: []wf.Arc{
				{From: "a", To: "b"}, {From: "b", To: "c"}, {From: "c", To: "a"},
			},
		}
	}
	// The DFS roots at the first declared step ("c"), walks c→a→b and finds
	// the back edge b→c — always the same report.
	const golden = `wf: invalid type "cyc": control-flow cycle through "b"→"c" (mark back edges with Loop)`
	for i := 0; i < 50; i++ {
		err := build().Validate()
		if err == nil {
			t.Fatal("cycle not detected")
		}
		if err.Error() != golden {
			t.Fatalf("run %d: error %q, want %q", i, err.Error(), golden)
		}
	}
}

// TestPlanShape covers the plan accessors and parallel-group annotation on a
// diamond: the two middle steps share a group (they are independent).
func TestPlanShape(t *testing.T) {
	def := &wf.TypeDef{
		Name: "diamond", Version: 3,
		Steps: []wf.StepDef{
			{Name: "in", Kind: wf.StepNoop},
			{Name: "left", Kind: wf.StepNoop},
			{Name: "right", Kind: wf.StepNoop},
			{Name: "out", Kind: wf.StepNoop, Join: wf.JoinAll},
		},
		Arcs: []wf.Arc{
			{From: "in", To: "left"}, {From: "in", To: "right"},
			{From: "left", To: "out"}, {From: "right", To: "out"},
		},
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := wf.Compile(def, wf.CompileDeps{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Key() != "diamond@3" || p.NumSteps() != 4 || p.NumArcs() != 4 {
		t.Fatalf("plan shape: %s", p)
	}
	groups := p.Groups()
	if len(groups) != 3 || len(groups[1]) != 2 {
		t.Fatalf("groups = %v, want 3 levels with a 2-wide middle", groups)
	}
	if p.MaxWidth() != 2 {
		t.Fatalf("MaxWidth = %d, want 2", p.MaxWidth())
	}

	// Deploy caches the plan and bumps the epoch; redeploying a revision
	// recompiles.
	e := wf.NewEngine("shape", wfstore.NewMemStore(), nil, nil)
	if before := e.PlanEpoch(); before != 0 {
		t.Fatalf("fresh epoch = %d", before)
	}
	if err := e.Deploy(def.Clone()); err != nil {
		t.Fatal(err)
	}
	if e.PlanEpoch() != 1 || e.CompiledPlans() != 1 {
		t.Fatalf("epoch %d compiles %d after one deploy", e.PlanEpoch(), e.CompiledPlans())
	}
	if _, ok := e.PlanFor("diamond", 3); !ok {
		t.Fatal("deployed plan not cached")
	}
	if got := len(e.Plans()); got != 1 {
		t.Fatalf("Plans() = %d entries", got)
	}
	next := def.Clone()
	next.Version = 4
	if err := e.Deploy(next); err != nil {
		t.Fatal(err)
	}
	if e.PlanEpoch() != 2 || e.CompiledPlans() != 2 {
		t.Fatalf("epoch %d compiles %d after redeploy", e.PlanEpoch(), e.CompiledPlans())
	}
}
