package wf_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/doc"
	"repro/internal/wf"
	"repro/internal/wfstore"
)

func newEngine(t *testing.T, ports wf.PortFunc) (*wf.Engine, *wf.Handlers) {
	t.Helper()
	h := wf.NewHandlers()
	e := wf.NewEngine("eng", wfstore.NewMemStore(), h, ports)
	return e, h
}

func deploy(t *testing.T, e *wf.Engine, def *wf.TypeDef) {
	t.Helper()
	if def.Version == 0 {
		def.Version = 1
	}
	if err := e.Deploy(def); err != nil {
		t.Fatalf("deploy %s: %v", def.Name, err)
	}
}

func TestSequence(t *testing.T) {
	e, h := newEngine(t, nil)
	var order []string
	for _, name := range []string{"h1", "h2", "h3"} {
		name := name
		h.Register(name, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			order = append(order, name)
			return nil
		})
	}
	deploy(t, e, &wf.TypeDef{
		Name: "seq",
		Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepTask, Handler: "h1"},
			{Name: "b", Kind: wf.StepTask, Handler: "h2"},
			{Name: "c", Kind: wf.StepTask, Handler: "h3"},
		},
		Arcs: []wf.Arc{{From: "a", To: "b"}, {From: "b", To: "c"}},
	})
	in, err := e.Start(context.Background(), "seq", nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted {
		t.Fatalf("state %s", in.State)
	}
	if strings.Join(order, ",") != "h1,h2,h3" {
		t.Fatalf("order %v", order)
	}
}

func TestDataFlow(t *testing.T) {
	e, h := newEngine(t, nil)
	h.Register("inc", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		n, _ := in.Data["n"].(float64)
		in.Data["n"] = n + 1
		return nil
	})
	deploy(t, e, &wf.TypeDef{
		Name: "data",
		Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepTask, Handler: "inc"},
			{Name: "b", Kind: wf.StepTask, Handler: "inc"},
		},
		Arcs: []wf.Arc{{From: "a", To: "b"}},
	})
	in, err := e.Start(context.Background(), "data", map[string]any{"n": float64(0)})
	if err != nil {
		t.Fatal(err)
	}
	if in.Data["n"] != float64(2) {
		t.Fatalf("n = %v", in.Data["n"])
	}
}

// TestConditionalApproval reproduces the Figure 1 pattern: approval happens
// only above the threshold; the other branch is dead-path eliminated and
// the join still completes.
func TestConditionalApproval(t *testing.T) {
	build := func() (*wf.Engine, *[]string) {
		e, h := newEngine(t, nil)
		var trace []string
		tracePtr := &trace
		for _, name := range []string{"store", "approve", "finish"} {
			name := name
			h.Register(name, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
				*tracePtr = append(*tracePtr, name)
				return nil
			})
		}
		deploy(t, e, &wf.TypeDef{
			Name: "approval",
			Steps: []wf.StepDef{
				{Name: "store PO", Kind: wf.StepTask, Handler: "store"},
				{Name: "approve PO", Kind: wf.StepTask, Handler: "approve"},
				{Name: "finish", Kind: wf.StepTask, Handler: "finish", Join: wf.JoinAny},
			},
			Arcs: []wf.Arc{
				{From: "store PO", To: "approve PO", Condition: "PO.amount > 10000"},
				{From: "store PO", To: "finish", Condition: "PO.amount <= 10000"},
				{From: "approve PO", To: "finish"},
			},
		})
		return e, tracePtr
	}

	g := doc.NewGenerator(1)
	buyer := doc.Party{ID: "TP1", Name: "Acme"}
	seller := doc.Party{ID: "S", Name: "W"}

	e, trace := build()
	big := g.POWithAmount(buyer, seller, 50000)
	in, err := e.Start(context.Background(), "approval", map[string]any{"document": big})
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted {
		t.Fatalf("state %s: %s", in.State, in.Error)
	}
	if strings.Join(*trace, ",") != "store,approve,finish" {
		t.Fatalf("big order trace %v", *trace)
	}
	if in.StepStateOf("approve PO") != wf.StepCompleted {
		t.Fatal("approval should have run")
	}

	e, trace = build()
	small := g.POWithAmount(buyer, seller, 500)
	in, err = e.Start(context.Background(), "approval", map[string]any{"document": small})
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted {
		t.Fatalf("state %s: %s", in.State, in.Error)
	}
	if strings.Join(*trace, ",") != "store,finish" {
		t.Fatalf("small order trace %v", *trace)
	}
	if in.StepStateOf("approve PO") != wf.StepSkipped {
		t.Fatalf("approval should be dead-path skipped, is %s", in.StepStateOf("approve PO"))
	}
}

func TestParallelSplitJoin(t *testing.T) {
	e, h := newEngine(t, nil)
	ran := map[string]bool{}
	for _, name := range []string{"split", "left", "right", "join"} {
		name := name
		h.Register(name, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			if name == "join" && (!ran["left"] || !ran["right"]) {
				return fmt.Errorf("join ran before both branches")
			}
			ran[name] = true
			return nil
		})
	}
	deploy(t, e, &wf.TypeDef{
		Name: "par",
		Steps: []wf.StepDef{
			{Name: "split", Kind: wf.StepTask, Handler: "split"},
			{Name: "left", Kind: wf.StepTask, Handler: "left"},
			{Name: "right", Kind: wf.StepTask, Handler: "right"},
			{Name: "join", Kind: wf.StepTask, Handler: "join"},
		},
		Arcs: []wf.Arc{
			{From: "split", To: "left"}, {From: "split", To: "right"},
			{From: "left", To: "join"}, {From: "right", To: "join"},
		},
	})
	in, err := e.Start(context.Background(), "par", nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted || !ran["join"] {
		t.Fatalf("state %s, ran %v", in.State, ran)
	}
}

func TestDeadPathPropagation(t *testing.T) {
	// A whole chain behind a false condition is skipped, and an AND-join
	// fed only by dead paths is skipped too, not deadlocked.
	e, h := newEngine(t, nil)
	h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	deploy(t, e, &wf.TypeDef{
		Name: "dead",
		Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepTask, Handler: "nop"},
			{Name: "b", Kind: wf.StepTask, Handler: "nop"},
			{Name: "c", Kind: wf.StepTask, Handler: "nop"},
			{Name: "d", Kind: wf.StepTask, Handler: "nop"},
		},
		Arcs: []wf.Arc{
			{From: "a", To: "b", Condition: "false"},
			{From: "b", To: "c"},
			{From: "c", To: "d"},
		},
	})
	in, err := e.Start(context.Background(), "dead", nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted {
		t.Fatalf("state %s", in.State)
	}
	for _, s := range []string{"b", "c", "d"} {
		if in.StepStateOf(s) != wf.StepSkipped {
			t.Fatalf("step %s = %s, want skipped", s, in.StepStateOf(s))
		}
	}
}

func TestReceiveParksAndDeliverResumes(t *testing.T) {
	e, h := newEngine(t, nil)
	h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	deploy(t, e, &wf.TypeDef{
		Name: "recv",
		Steps: []wf.StepDef{
			{Name: "before", Kind: wf.StepTask, Handler: "nop"},
			{Name: "wait", Kind: wf.StepReceive, Port: "in", DataKey: "payload"},
			{Name: "after", Kind: wf.StepTask, Handler: "nop"},
		},
		Arcs: []wf.Arc{{From: "before", To: "wait"}, {From: "wait", To: "after"}},
	})
	ctx := context.Background()
	in, err := e.Start(ctx, "recv", nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstRunning || in.StepStateOf("wait") != wf.StepWaiting {
		t.Fatalf("instance should park: %s / %s", in.State, in.StepStateOf("wait"))
	}
	if err := e.Deliver(ctx, in.ID, "wrong-port", "x"); !errors.Is(err, wf.ErrNotWaiting) {
		t.Fatalf("wrong port: %v", err)
	}
	if err := e.Deliver(ctx, in.ID, "in", "the payload"); err != nil {
		t.Fatal(err)
	}
	got, err := e.Instance(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != wf.InstCompleted {
		t.Fatalf("state %s", got.State)
	}
	if got.Data["payload"] != "the payload" {
		t.Fatalf("payload %v", got.Data["payload"])
	}
	if err := e.Deliver(ctx, in.ID, "in", "again"); !errors.Is(err, wf.ErrNotWaiting) {
		t.Fatalf("second deliver: %v", err)
	}
}

// TestSubworkflowSynchronousSemantics verifies the Section 3.1 property the
// paper's argument rests on: a subworkflow returns control to the
// superworkflow only when it is finished. A subworkflow that parks on a
// receive keeps the parent parked; the step after the subworkflow must not
// run early.
func TestSubworkflowSynchronousSemantics(t *testing.T) {
	e, h := newEngine(t, nil)
	var afterRan bool
	h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	h.Register("after", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		afterRan = true
		return nil
	})
	deploy(t, e, &wf.TypeDef{
		Name: "child",
		Steps: []wf.StepDef{
			{Name: "receive PO", Kind: wf.StepReceive, Port: "po-in"},
			{Name: "process", Kind: wf.StepTask, Handler: "nop"},
		},
		Arcs: []wf.Arc{{From: "receive PO", To: "process"}},
	})
	deploy(t, e, &wf.TypeDef{
		Name: "parent",
		Steps: []wf.StepDef{
			{Name: "sub", Kind: wf.StepSubworkflow, Subworkflow: "child"},
			{Name: "after", Kind: wf.StepTask, Handler: "after"},
		},
		Arcs: []wf.Arc{{From: "sub", To: "after"}},
	})
	ctx := context.Background()
	parent, err := e.Start(ctx, "parent", nil)
	if err != nil {
		t.Fatal(err)
	}
	if parent.State != wf.InstRunning {
		t.Fatalf("parent state %s", parent.State)
	}
	if afterRan {
		t.Fatal("step after subworkflow ran while subworkflow was parked — control returned early")
	}
	childID := runOf(parent, "sub").Child
	if childID == "" {
		t.Fatal("no child recorded")
	}
	if err := e.Deliver(ctx, childID, "po-in", "PO payload"); err != nil {
		t.Fatal(err)
	}
	got, _ := e.Instance(parent.ID)
	if got.State != wf.InstCompleted || !afterRan {
		t.Fatalf("parent %s, afterRan %v", got.State, afterRan)
	}
}

func TestSubworkflowCompletesInline(t *testing.T) {
	e, h := newEngine(t, nil)
	h.Register("set", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		in.Data["result"] = "from child"
		return nil
	})
	h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	deploy(t, e, &wf.TypeDef{
		Name:  "child2",
		Steps: []wf.StepDef{{Name: "work", Kind: wf.StepTask, Handler: "set"}},
	})
	deploy(t, e, &wf.TypeDef{
		Name: "parent2",
		Steps: []wf.StepDef{
			{Name: "sub", Kind: wf.StepSubworkflow, Subworkflow: "child2"},
			{Name: "after", Kind: wf.StepTask, Handler: "nop"},
		},
		Arcs: []wf.Arc{{From: "sub", To: "after"}},
	})
	in, err := e.Start(context.Background(), "parent2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted {
		t.Fatalf("state %s", in.State)
	}
	if in.Data["result"] != "from child" {
		t.Fatalf("child result not absorbed: %v", in.Data["result"])
	}
}

func TestSubworkflowFailurePropagates(t *testing.T) {
	e, h := newEngine(t, nil)
	h.Register("boom", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		return fmt.Errorf("kaput")
	})
	deploy(t, e, &wf.TypeDef{
		Name:  "failchild",
		Steps: []wf.StepDef{{Name: "work", Kind: wf.StepTask, Handler: "boom"}},
	})
	deploy(t, e, &wf.TypeDef{
		Name:  "failparent",
		Steps: []wf.StepDef{{Name: "sub", Kind: wf.StepSubworkflow, Subworkflow: "failchild"}},
	})
	in, err := e.Start(context.Background(), "failparent", nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if in.State != wf.InstFailed {
		t.Fatalf("state %s", in.State)
	}
	if !strings.Contains(in.Error, "kaput") {
		t.Fatalf("error %q", in.Error)
	}
}

func TestLoop(t *testing.T) {
	e, h := newEngine(t, nil)
	h.Register("inc", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		n, _ := in.Data["n"].(float64)
		in.Data["n"] = n + 1
		return nil
	})
	h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	deploy(t, e, &wf.TypeDef{
		Name: "loop",
		Steps: []wf.StepDef{
			{Name: "init", Kind: wf.StepNoop},
			{Name: "body", Kind: wf.StepTask, Handler: "inc"},
			{Name: "check", Kind: wf.StepNoop},
			{Name: "done", Kind: wf.StepTask, Handler: "nop", Join: wf.JoinAny},
		},
		Arcs: []wf.Arc{
			{From: "init", To: "body"},
			{From: "body", To: "check"},
			{From: "check", To: "body", Condition: "n < 3", Loop: true},
			{From: "check", To: "done", Condition: "n >= 3"},
		},
	})
	in, err := e.Start(context.Background(), "loop", map[string]any{"n": float64(0)})
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted {
		t.Fatalf("state %s: %s", in.State, in.Error)
	}
	if in.Data["n"] != float64(3) {
		t.Fatalf("n = %v, want 3 iterations", in.Data["n"])
	}
}

// TestLoopArcOrder: the declaration order of a step's loop arc and its exit
// arc does not matter. A loop iteration resets the whole loop body, so the
// exit arc's false signal from an earlier iteration must not survive into
// the next one and dead-path the exit step.
func TestLoopArcOrder(t *testing.T) {
	loop := wf.Arc{From: "inc", To: "inc", Condition: "n < 3", Loop: true}
	exit := wf.Arc{From: "inc", To: "done", Condition: "n >= 3"}
	var histories [][]wf.Event
	for _, arcs := range [][]wf.Arc{{loop, exit}, {exit, loop}} {
		label := fmt.Sprintf("arcs %s→%s first", arcs[0].From, arcs[0].To)
		e, h := newEngine(t, nil)
		h.Register("inc", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			in.Data["n"] = in.Data["n"].(float64) + 1
			return nil
		})
		finished := 0
		h.Register("finish", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			finished++
			return nil
		})
		deploy(t, e, &wf.TypeDef{
			Name: "loop",
			Steps: []wf.StepDef{
				{Name: "inc", Kind: wf.StepTask, Handler: "inc"},
				{Name: "done", Kind: wf.StepTask, Handler: "finish"},
			},
			Arcs: arcs,
		})
		in, err := e.Start(context.Background(), "loop", map[string]any{"n": float64(0)})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if in.State != wf.InstCompleted || in.Data["n"] != float64(3) {
			t.Fatalf("%s: state %s, n = %v; want completed after 3 iterations", label, in.State, in.Data["n"])
		}
		if got := in.StepStateOf("done"); got != wf.StepCompleted || finished != 1 {
			t.Fatalf("%s: exit step %s, handler ran %d times; want completed once", label, got, finished)
		}
		histories = append(histories, in.History)
	}
	if !reflect.DeepEqual(histories[0], histories[1]) {
		t.Fatalf("histories depend on arc order:\n%v\n%v", histories[0], histories[1])
	}
}

func TestMissingHandlerFails(t *testing.T) {
	// Since the compilation layer, a missing handler is a deploy-time
	// rejection (PlanUnknownHandler) instead of a runtime step failure.
	e, _ := newEngine(t, nil)
	err := e.Deploy(&wf.TypeDef{
		Name:  "nohandler",
		Steps: []wf.StepDef{{Name: "a", Kind: wf.StepTask, Handler: "ghost"}},
	})
	var perrs wf.PlanErrors
	if !errors.As(err, &perrs) {
		t.Fatalf("deploy err = %v, want PlanErrors", err)
	}
	if len(perrs.ByClass(wf.PlanUnknownHandler)) != 1 {
		t.Fatalf("errors = %v, want one unknown-handler", perrs)
	}
	if _, err := e.Start(context.Background(), "nohandler", nil); err == nil {
		t.Fatal("start of rejected type should fail")
	}
}

func TestSendAndConnectionPorts(t *testing.T) {
	var sent []string
	ports := func(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error {
		sent = append(sent, s.Port+":"+fmt.Sprint(payload))
		return nil
	}
	e, _ := newEngine(t, ports)
	deploy(t, e, &wf.TypeDef{
		Name: "ports",
		Steps: []wf.StepDef{
			{Name: "send it", Kind: wf.StepSend, Port: "out1"},
			{Name: "connect out", Kind: wf.StepConnection, Port: "out2", Dir: wf.DirOut},
		},
		Arcs: []wf.Arc{{From: "send it", To: "connect out"}},
	})
	in, err := e.Start(context.Background(), "ports", map[string]any{"document": "DOC"})
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted {
		t.Fatalf("state %s", in.State)
	}
	if strings.Join(sent, ",") != "out1:DOC,out2:DOC" {
		t.Fatalf("sent %v", sent)
	}
}

func TestConnectionInWaits(t *testing.T) {
	e, _ := newEngine(t, nil)
	deploy(t, e, &wf.TypeDef{
		Name:  "connin",
		Steps: []wf.StepDef{{Name: "from binding", Kind: wf.StepConnection, Port: "b", Dir: wf.DirIn}},
	})
	ctx := context.Background()
	in, err := e.Start(ctx, "connin", nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.StepStateOf("from binding") != wf.StepWaiting {
		t.Fatalf("state %s", in.StepStateOf("from binding"))
	}
	if err := e.Deliver(ctx, in.ID, "b", "payload"); err != nil {
		t.Fatal(err)
	}
	got, _ := e.Instance(in.ID)
	if got.State != wf.InstCompleted || got.Data["document"] != "payload" {
		t.Fatalf("%s %v", got.State, got.Data["document"])
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		def  wf.TypeDef
		want string
	}{
		{"empty", wf.TypeDef{Name: "x"}, "no steps"},
		{"no name", wf.TypeDef{Steps: []wf.StepDef{{Name: "a", Kind: wf.StepNoop}}}, "missing type name"},
		{"dup step", wf.TypeDef{Name: "x", Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepNoop}, {Name: "a", Kind: wf.StepNoop}}}, "duplicate step"},
		{"task no handler", wf.TypeDef{Name: "x", Steps: []wf.StepDef{{Name: "a", Kind: wf.StepTask}}}, "missing handler"},
		{"sub no type", wf.TypeDef{Name: "x", Steps: []wf.StepDef{{Name: "a", Kind: wf.StepSubworkflow}}}, "missing subworkflow"},
		{"send no port", wf.TypeDef{Name: "x", Steps: []wf.StepDef{{Name: "a", Kind: wf.StepSend}}}, "missing port"},
		{"conn no dir", wf.TypeDef{Name: "x", Steps: []wf.StepDef{{Name: "a", Kind: wf.StepConnection, Port: "p"}}}, "direction"},
		{"unknown kind", wf.TypeDef{Name: "x", Steps: []wf.StepDef{{Name: "a", Kind: "weird"}}}, "unknown kind"},
		{"bad arc src", wf.TypeDef{Name: "x", Steps: []wf.StepDef{{Name: "a", Kind: wf.StepNoop}},
			Arcs: []wf.Arc{{From: "ghost", To: "a"}}}, "unknown source"},
		{"bad arc dst", wf.TypeDef{Name: "x", Steps: []wf.StepDef{{Name: "a", Kind: wf.StepNoop}},
			Arcs: []wf.Arc{{From: "a", To: "ghost"}}}, "unknown target"},
		{"bad condition", wf.TypeDef{Name: "x", Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepNoop}, {Name: "b", Kind: wf.StepNoop}},
			Arcs: []wf.Arc{{From: "a", To: "b", Condition: "1 +"}}}, "bad condition"},
		{"cycle", wf.TypeDef{Name: "x", Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepNoop}, {Name: "b", Kind: wf.StepNoop}},
			Arcs: []wf.Arc{{From: "a", To: "b"}, {From: "b", To: "a"}}}, "cycle"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.def.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestStartSteps(t *testing.T) {
	def := &wf.TypeDef{
		Name: "x",
		Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepNoop}, {Name: "b", Kind: wf.StepNoop}, {Name: "c", Kind: wf.StepNoop},
		},
		Arcs: []wf.Arc{{From: "a", To: "c"}, {From: "b", To: "c"}},
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	starts := def.StartSteps()
	if len(starts) != 2 || starts[0] != "a" || starts[1] != "b" {
		t.Fatalf("starts %v", starts)
	}
}

func TestHistoryRecorded(t *testing.T) {
	e, h := newEngine(t, nil)
	h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	deploy(t, e, &wf.TypeDef{
		Name:  "hist",
		Steps: []wf.StepDef{{Name: "a", Kind: wf.StepTask, Handler: "nop"}},
	})
	in, err := e.Start(context.Background(), "hist", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.History) < 3 {
		t.Fatalf("history too short: %v", in.History)
	}
	for i := 1; i < len(in.History); i++ {
		if in.History[i].Seq != in.History[i-1].Seq+1 {
			t.Fatalf("history sequence broken at %d: %v", i, in.History)
		}
	}
	last := in.History[len(in.History)-1]
	if last.What != "instance completed" {
		t.Fatalf("last event %+v", last)
	}
}

func TestUnknownTypeStart(t *testing.T) {
	e, _ := newEngine(t, nil)
	if _, err := e.Start(context.Background(), "ghost", nil); !errors.Is(err, wf.ErrNotFound) {
		t.Fatalf("err %v", err)
	}
}

func TestTypeDefClone(t *testing.T) {
	def := &wf.TypeDef{
		Name: "x", Version: 2,
		Steps: []wf.StepDef{{Name: "a", Kind: wf.StepNoop}, {Name: "b", Kind: wf.StepNoop}},
		Arcs:  []wf.Arc{{From: "a", To: "b", Condition: "true"}},
	}
	fresh := def.Clone()
	if err := fresh.Validate(); err != nil {
		t.Fatalf("clone validate: %v", err)
	}
	if fresh.Key() != "x@2" {
		t.Fatalf("key %s", fresh.Key())
	}
	cp := def.Clone()
	cp.Steps[0].Name = "z"
	cp.Arcs[0].Condition = "false"
	if def.Steps[0].Name != "a" || def.Arcs[0].Condition != "true" {
		t.Fatal("Clone shares state")
	}
}

func TestInstanceSummary(t *testing.T) {
	e, h := newEngine(t, nil)
	h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	deploy(t, e, &wf.TypeDef{
		Name:  "sum",
		Steps: []wf.StepDef{{Name: "a", Kind: wf.StepTask, Handler: "nop"}},
	})
	in, _ := e.Start(context.Background(), "sum", nil)
	s := in.Summary()
	if !strings.Contains(s, "completed") || !strings.Contains(s, "1/1") {
		t.Fatalf("summary %q", s)
	}
}

// TestXORJoinFirstWins: a JoinAny step runs once when the first branch
// arrives even though the second is still pending (parked on a receive).
func TestXORJoinFirstWins(t *testing.T) {
	e, h := newEngine(t, nil)
	count := 0
	h.Register("joiner", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		count++
		return nil
	})
	h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	deploy(t, e, &wf.TypeDef{
		Name: "xor",
		Steps: []wf.StepDef{
			{Name: "fast", Kind: wf.StepTask, Handler: "nop"},
			{Name: "slow", Kind: wf.StepReceive, Port: "never"},
			{Name: "join", Kind: wf.StepTask, Handler: "joiner", Join: wf.JoinAny},
		},
		Arcs: []wf.Arc{{From: "fast", To: "join"}, {From: "slow", To: "join"}},
	})
	in, err := e.Start(context.Background(), "xor", nil)
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("join ran %d times", count)
	}
	if in.StepStateOf("join") != wf.StepCompleted {
		t.Fatalf("join state %s", in.StepStateOf("join"))
	}
}

// runOf returns the named step's run (the zero run when the instance has
// no such step).
func runOf(in *wf.Instance, name string) wf.StepRun {
	run, _ := in.StepRunOf(name)
	return run
}

// TestForgetDeletesInstanceTree: Forget deletes an instance and the
// children its subworkflow steps started, whatever their state: here the
// child is parked on a receive step and the parent waits on it.
func TestForgetDeletesInstanceTree(t *testing.T) {
	e, _ := newEngine(t, nil)
	deploy(t, e, &wf.TypeDef{Name: "child", Steps: []wf.StepDef{{Name: "wait", Kind: wf.StepReceive, Port: "in"}}})
	deploy(t, e, &wf.TypeDef{Name: "parent", Steps: []wf.StepDef{{Name: "call", Kind: wf.StepSubworkflow, Subworkflow: "child"}}})
	in, err := e.Start(context.Background(), "parent", nil)
	if err != nil {
		t.Fatal(err)
	}
	run := runOf(in, "call")
	if run.Child == "" || run.State != wf.StepChildRun {
		t.Fatalf("parent %s did not wait on a child: %+v", in.ID, run)
	}
	if err := e.Forget(in.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{in.ID, run.Child} {
		if _, err := e.Instance(id); !errors.Is(err, wf.ErrNotFound) {
			t.Errorf("instance %s after Forget: %v, want ErrNotFound", id, err)
		}
	}
	if ids, _ := e.Store().ListInstances(); len(ids) != 0 {
		t.Errorf("the store still holds %v", ids)
	}
}
