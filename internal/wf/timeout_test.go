package wf_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/wf"
	"repro/internal/wfstore"
)

// timeoutType models the paper's public-process time-out behavior: wait
// for the POA; on expiry run an escalation branch instead.
func timeoutType() *wf.TypeDef {
	return &wf.TypeDef{
		Name: "with-timeout", Version: 1,
		Steps: []wf.StepDef{
			{Name: "send PO", Kind: wf.StepTask, Handler: "nop"},
			{Name: "receive POA", Kind: wf.StepReceive, Port: "poa", DataKey: "poa", OnTimeout: "escalate"},
			{Name: "store POA", Kind: wf.StepTask, Handler: "store"},
			{Name: "escalate", Kind: wf.StepTask, Handler: "escalate"},
			{Name: "done", Kind: wf.StepTask, Handler: "nop", Join: wf.JoinAny},
		},
		Arcs: []wf.Arc{
			{From: "send PO", To: "receive POA"},
			{From: "receive POA", To: "store POA"},
			{From: "store POA", To: "done"},
			{From: "escalate", To: "done"},
		},
	}
}

func timeoutEngine(t *testing.T) (*wf.Engine, *map[string]bool) {
	t.Helper()
	ran := map[string]bool{}
	h := wf.NewHandlers()
	for _, name := range []string{"nop", "store", "escalate"} {
		name := name
		h.Register(name, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			ran[name] = true
			return nil
		})
	}
	e := wf.NewEngine("to", wfstore.NewMemStore(), h, nil)
	if err := e.Deploy(timeoutType()); err != nil {
		t.Fatal(err)
	}
	return e, &ran
}

func TestTimeoutBranchOnExpire(t *testing.T) {
	e, ran := timeoutEngine(t)
	ctx := context.Background()
	in, err := e.Start(ctx, "with-timeout", nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstRunning {
		t.Fatalf("state %s", in.State)
	}
	if (*ran)["escalate"] {
		t.Fatal("timeout branch ran before expiry")
	}
	if err := e.Expire(ctx, in.ID, "receive POA"); err != nil {
		t.Fatal(err)
	}
	got, err := e.Instance(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != wf.InstCompleted {
		t.Fatalf("state %s: %s", got.State, got.Error)
	}
	if !(*ran)["escalate"] {
		t.Fatal("escalation did not run")
	}
	if (*ran)["store"] {
		t.Fatal("normal continuation ran after timeout")
	}
	if got.StepStateOf("receive POA") != wf.StepSkipped {
		t.Fatalf("receive state %s", got.StepStateOf("receive POA"))
	}
	if got.StepStateOf("store POA") != wf.StepSkipped {
		t.Fatalf("store state %s", got.StepStateOf("store POA"))
	}
	// Delivering after expiry finds no waiting step.
	if err := e.Deliver(ctx, in.ID, "poa", "late"); err == nil {
		t.Fatal("late delivery accepted after timeout")
	}
}

func TestTimeoutBranchSkippedOnNormalDelivery(t *testing.T) {
	e, ran := timeoutEngine(t)
	ctx := context.Background()
	in, err := e.Start(ctx, "with-timeout", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Deliver(ctx, in.ID, "poa", "the POA"); err != nil {
		t.Fatal(err)
	}
	got, err := e.Instance(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != wf.InstCompleted {
		t.Fatalf("state %s: %s", got.State, got.Error)
	}
	if !(*ran)["store"] || (*ran)["escalate"] {
		t.Fatalf("ran %v", *ran)
	}
	if got.StepStateOf("escalate") != wf.StepSkipped {
		t.Fatalf("escalate state %s", got.StepStateOf("escalate"))
	}
	// Expiring after normal completion errors.
	if err := e.Expire(ctx, in.ID, "receive POA"); err == nil {
		t.Fatal("expire after completion accepted")
	}
}

func TestExpireValidation(t *testing.T) {
	e, _ := timeoutEngine(t)
	ctx := context.Background()
	in, err := e.Start(ctx, "with-timeout", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Expire(ctx, in.ID, "ghost step"); err == nil {
		t.Fatal("unknown step accepted")
	}
	if err := e.Expire(ctx, in.ID, "send PO"); err == nil {
		t.Fatal("step without timeout branch accepted")
	}
	if err := e.Expire(ctx, "ghost-instance", "receive POA"); err == nil {
		t.Fatal("unknown instance accepted")
	}
}

func TestTimeoutValidation(t *testing.T) {
	cases := []struct {
		name string
		def  wf.TypeDef
		want string
	}{
		{"on task step", wf.TypeDef{Name: "x", Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepNoop, OnTimeout: "b"},
			{Name: "b", Kind: wf.StepNoop},
		}}, "only valid on waiting steps"},
		{"unknown target", wf.TypeDef{Name: "x", Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepReceive, Port: "p", OnTimeout: "ghost"},
		}}, "unknown timeout step"},
		{"shared target", wf.TypeDef{Name: "x", Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepReceive, Port: "p", OnTimeout: "t"},
			{Name: "b", Kind: wf.StepReceive, Port: "q", OnTimeout: "t"},
			{Name: "t", Kind: wf.StepNoop},
		}}, "timeout branch of both"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.def.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err %v, want %q", err, c.want)
			}
		})
	}
}

// TestTaskRetries: a flaky handler succeeds within its retry budget; one
// that keeps failing exhausts it and fails the instance with bounded
// attempts (no endless repetition).
func TestTaskRetries(t *testing.T) {
	h := wf.NewHandlers()
	calls := map[string]int{}
	h.Register("flaky", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		calls["flaky"]++
		if calls["flaky"] < 3 {
			return context.DeadlineExceeded // any transient error
		}
		return nil
	})
	h.Register("hopeless", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		calls["hopeless"]++
		return context.DeadlineExceeded
	})
	e := wf.NewEngine("retry", wfstore.NewMemStore(), h, nil)
	if err := e.Deploy(&wf.TypeDef{
		Name: "flaky-flow", Version: 1,
		Steps: []wf.StepDef{{Name: "work", Kind: wf.StepTask, Handler: "flaky", Retries: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	in, err := e.Start(context.Background(), "flaky-flow", nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted {
		t.Fatalf("state %s: %s", in.State, in.Error)
	}
	if calls["flaky"] != 3 {
		t.Fatalf("flaky called %d times, want 3", calls["flaky"])
	}

	if err := e.Deploy(&wf.TypeDef{
		Name: "hopeless-flow", Version: 1,
		Steps: []wf.StepDef{{Name: "work", Kind: wf.StepTask, Handler: "hopeless", Retries: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	in2, err := e.Start(context.Background(), "hopeless-flow", nil)
	if err == nil {
		t.Fatal("hopeless flow succeeded")
	}
	if in2.State != wf.InstFailed {
		t.Fatalf("state %s", in2.State)
	}
	if calls["hopeless"] != 3 { // 1 try + 2 retries, bounded
		t.Fatalf("hopeless called %d times, want 3", calls["hopeless"])
	}
	if runOf(in2, "work").Attempts != 3 {
		t.Fatalf("attempts %d", runOf(in2, "work").Attempts)
	}
}
