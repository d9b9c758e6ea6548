package wf_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wf"
	"repro/internal/wfstore"
)

// compat_test pins the workflow interpreter to golden transcripts. Each case
// deploys its types, starts the first one, optionally drives the instance
// further, and renders every stored instance — state, error, step runs,
// attempts, arc signals, data and history, maps sorted — into
// testdata/compat/<test name>.golden. The goldens were written by the
// pre-plan TypeDef interpreter, which rescanned every step per pass; the
// compiled-plan interpreter replaced it and, at parallelism 1, must
// reproduce its transcripts byte for byte.

// golden collects one test's rendered cases and compares them with the
// test's golden file.
type golden struct {
	t   *testing.T
	buf bytes.Buffer
}

func newGolden(t *testing.T) *golden { return &golden{t: t} }

func (g *golden) printf(format string, args ...any) { fmt.Fprintf(&g.buf, format, args...) }

// check compares the rendered transcript with the golden file and reports
// the first differing line.
func (g *golden) check() {
	g.t.Helper()
	path := filepath.Join("testdata", "compat", g.t.Name()+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		g.t.Fatal(err)
	}
	got := g.buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var a, b string
		if i < len(gl) {
			a = gl[i]
		}
		if i < len(wl) {
			b = wl[i]
		}
		if a != b {
			g.t.Fatalf("%s:%d differs\n got: %q\nwant: %q", path, i+1, a, b)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// renderInstance writes everything the engine records about an instance.
func (g *golden) renderInstance(in *wf.Instance) {
	g.printf("instance %s %s@%d %s", in.ID, in.Type, in.Version, in.State)
	if in.Parent != "" {
		g.printf(" parent=%s/%s", in.Parent, in.ParentStep)
	}
	g.printf("\n")
	if in.Error != "" {
		g.printf("  error: %s\n", in.Error)
	}
	runs, arcs := map[string]wf.StepRun{}, map[string]int{}
	in.RangeSteps(func(name string, run wf.StepRun) bool { runs[name] = run; return true })
	in.RangeArcs(func(key string, sig int) bool { arcs[key] = sig; return true })
	for _, name := range sortedKeys(runs) {
		r := runs[name]
		g.printf("  step %s: %s attempts=%d", name, r.State, r.Attempts)
		if r.Child != "" {
			g.printf(" child=%s", r.Child)
		}
		if r.Error != "" {
			g.printf(" error=%q", r.Error)
		}
		g.printf("\n")
	}
	for _, k := range sortedKeys(arcs) {
		g.printf("  arc %s: %d\n", k, arcs[k])
	}
	for _, k := range sortedKeys(in.Data) {
		g.printf("  data %s: %T %v\n", k, in.Data[k], in.Data[k])
	}
	for _, ev := range in.History {
		g.printf("  event %d [%s] %s\n", ev.Seq, ev.Step, ev.What)
	}
}

func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return "error: " + err.Error()
}

// runCompat deploys defs on a fresh engine, starts the first type with
// data, optionally drives the instance further, and renders the outcome and
// every stored instance under label.
func runCompat(t *testing.T, g *golden, label string,
	setup func(h *wf.Handlers, sent *[]string) wf.PortFunc,
	defs []*wf.TypeDef, data map[string]any,
	drive func(e *wf.Engine, in *wf.Instance) error) {
	t.Helper()
	h := wf.NewHandlers()
	var sent []string
	e := wf.NewEngine("cmp", wfstore.NewMemStore(), h, setup(h, &sent))
	for _, def := range defs {
		if err := e.Deploy(def.Clone()); err != nil {
			t.Fatalf("%s: deploy %s: %v", label, def.Name, err)
		}
	}
	ctx := context.Background()
	g.printf("== %s\n", label)
	in, err := e.Start(ctx, defs[0].Name, data)
	if in == nil {
		t.Fatalf("%s: start: %v", label, err)
	}
	g.printf("start %s: %s\n", in.ID, errText(err))
	if drive != nil {
		g.printf("drive: %s\n", errText(drive(e, in)))
	}
	if len(sent) > 0 {
		g.printf("sent: %s\n", strings.Join(sent, " "))
	}
	ids, err := e.Store().ListInstances()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		si, err := e.Store().GetInstance(id)
		if err != nil {
			t.Fatal(err)
		}
		g.renderInstance(si)
	}
}

func noPorts(h *wf.Handlers, sent *[]string) wf.PortFunc { return nil }

func recordPorts(h *wf.Handlers, sent *[]string) wf.PortFunc {
	return func(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error {
		*sent = append(*sent, s.Port)
		return nil
	}
}

func TestCompatConditionalRouting(t *testing.T) {
	g := newGolden(t)
	def := &wf.TypeDef{
		Name: "route",
		Steps: []wf.StepDef{
			{Name: "in", Kind: wf.StepTask, Handler: "mark"},
			{Name: "hi", Kind: wf.StepTask, Handler: "mark"},
			{Name: "lo", Kind: wf.StepTask, Handler: "mark"},
			{Name: "out", Kind: wf.StepNoop, Join: wf.JoinAny},
		},
		Arcs: []wf.Arc{
			{From: "in", To: "hi", Condition: "n > 1"},
			{From: "in", To: "lo", Condition: "n <= 1"},
			{From: "hi", To: "out"}, {From: "lo", To: "out"},
		},
	}
	setup := func(h *wf.Handlers, sent *[]string) wf.PortFunc {
		h.Register("mark", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			in.Data["last"] = s.Name
			return nil
		})
		return nil
	}
	for _, n := range []float64{0, 2} {
		runCompat(t, g, fmt.Sprintf("route/n=%v", n), setup,
			[]*wf.TypeDef{def}, map[string]any{"n": n}, nil)
	}
	g.check()
}

func TestCompatLoop(t *testing.T) {
	g := newGolden(t)
	def := &wf.TypeDef{
		Name: "loop",
		Steps: []wf.StepDef{
			{Name: "inc", Kind: wf.StepTask, Handler: "inc"},
			{Name: "done", Kind: wf.StepNoop},
		},
		Arcs: []wf.Arc{
			{From: "inc", To: "done", Condition: "n >= 3"},
			{From: "inc", To: "inc", Condition: "n < 3", Loop: true},
		},
	}
	setup := func(h *wf.Handlers, sent *[]string) wf.PortFunc {
		h.Register("inc", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			in.Data["n"] = in.Data["n"].(float64) + 1
			return nil
		})
		return nil
	}
	runCompat(t, g, "loop", setup, []*wf.TypeDef{def}, map[string]any{"n": float64(0)}, nil)
	g.check()
}

func TestCompatDeliverAndTimeout(t *testing.T) {
	g := newGolden(t)
	def := &wf.TypeDef{
		Name: "talk",
		Steps: []wf.StepDef{
			{Name: "ask", Kind: wf.StepSend, Port: "q", Message: "PO"},
			{Name: "answer", Kind: wf.StepReceive, Port: "a", DataKey: "reply", OnTimeout: "escalate"},
			{Name: "escalate", Kind: wf.StepTask, Handler: "mark"},
			{Name: "finish", Kind: wf.StepNoop, Join: wf.JoinAny},
		},
		Arcs: []wf.Arc{
			{From: "ask", To: "answer"},
			{From: "answer", To: "finish"},
			{From: "escalate", To: "finish"},
		},
	}
	setup := func(h *wf.Handlers, sent *[]string) wf.PortFunc {
		h.Register("mark", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			in.Data["escalated"] = true
			return nil
		})
		return recordPorts(h, sent)
	}
	runCompat(t, g, "deliver", setup, []*wf.TypeDef{def}, nil,
		func(e *wf.Engine, in *wf.Instance) error {
			return e.Deliver(context.Background(), in.ID, "a", "yes")
		})
	runCompat(t, g, "timeout", setup, []*wf.TypeDef{def}, nil,
		func(e *wf.Engine, in *wf.Instance) error {
			return e.Expire(context.Background(), in.ID, "answer")
		})
	g.check()
}

// TestCompatDeliverLoop: a delivery completes a receive step whose
// completion fires a loop arc (the exit arc is declared first), so the
// delivery itself resets the loop body and re-sends the request.
func TestCompatDeliverLoop(t *testing.T) {
	g := newGolden(t)
	def := &wf.TypeDef{
		Name: "poll",
		Steps: []wf.StepDef{
			{Name: "ask", Kind: wf.StepSend, Port: "q"},
			{Name: "answer", Kind: wf.StepReceive, Port: "a", DataKey: "reply"},
			{Name: "done", Kind: wf.StepTask, Handler: "mark"},
		},
		Arcs: []wf.Arc{
			{From: "ask", To: "answer"},
			{From: "answer", To: "done", Condition: `reply == "yes"`},
			{From: "answer", To: "ask", Condition: `reply != "yes"`, Loop: true},
		},
	}
	setup := func(h *wf.Handlers, sent *[]string) wf.PortFunc {
		h.Register("mark", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			in.Data["accepted"] = true
			return nil
		})
		return recordPorts(h, sent)
	}
	runCompat(t, g, "deliver-loop", setup, []*wf.TypeDef{def}, nil,
		func(e *wf.Engine, in *wf.Instance) error {
			ctx := context.Background()
			if err := e.Deliver(ctx, in.ID, "a", "no"); err != nil {
				return err
			}
			return e.Deliver(ctx, in.ID, "a", "yes")
		})
	g.check()
}

func TestCompatSubworkflow(t *testing.T) {
	g := newGolden(t)
	child := &wf.TypeDef{
		Name: "kid",
		Steps: []wf.StepDef{
			{Name: "work", Kind: wf.StepTask, Handler: "double"},
		},
	}
	parent := &wf.TypeDef{
		Name: "mom",
		Steps: []wf.StepDef{
			{Name: "call", Kind: wf.StepSubworkflow, Subworkflow: "kid"},
			{Name: "after", Kind: wf.StepTask, Handler: "double"},
		},
		Arcs: []wf.Arc{{From: "call", To: "after"}},
	}
	setup := func(h *wf.Handlers, sent *[]string) wf.PortFunc {
		h.Register("double", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			in.Data["result"] = in.Data["n"].(float64) * 2
			return nil
		})
		return nil
	}
	runCompat(t, g, "subworkflow", setup, []*wf.TypeDef{parent, child},
		map[string]any{"n": float64(5)}, nil)
	g.check()
}

// TestCompatSubworkflowResume: a subworkflow child parks on a receive step,
// so its parent parks too. A later delivery to the child completes it and
// resumes the parent, whose subworkflow step has conditional arcs out of
// it; a delivery the child rejects fails the child, and propagating that
// failure fails the parent.
func TestCompatSubworkflowResume(t *testing.T) {
	g := newGolden(t)
	child := &wf.TypeDef{
		Name: "kid",
		Steps: []wf.StepDef{
			{Name: "wait", Kind: wf.StepReceive, Port: "p", DataKey: "reply"},
			{Name: "work", Kind: wf.StepTask, Handler: "double"},
		},
		Arcs: []wf.Arc{{From: "wait", To: "work"}},
	}
	parent := &wf.TypeDef{
		Name: "mom",
		Steps: []wf.StepDef{
			{Name: "call", Kind: wf.StepSubworkflow, Subworkflow: "kid"},
			{Name: "big", Kind: wf.StepTask, Handler: "mark"},
			{Name: "small", Kind: wf.StepTask, Handler: "mark"},
			{Name: "end", Kind: wf.StepNoop, Join: wf.JoinAny},
		},
		Arcs: []wf.Arc{
			{From: "call", To: "big", Condition: "result > 5"},
			{From: "call", To: "small", Condition: "result <= 5"},
			{From: "big", To: "end"}, {From: "small", To: "end"},
		},
	}
	setup := func(h *wf.Handlers, sent *[]string) wf.PortFunc {
		h.Register("double", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			if in.Data["reply"] == "reject" {
				return errors.New("reply rejected")
			}
			in.Data["result"] = in.Data["n"].(float64) * 2
			return nil
		})
		h.Register("mark", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			in.Data["branch"] = s.Name
			return nil
		})
		return nil
	}
	for _, reply := range []string{"accept", "reject"} {
		runCompat(t, g, "resume/"+reply, setup, []*wf.TypeDef{parent, child},
			map[string]any{"n": float64(5)},
			func(e *wf.Engine, in *wf.Instance) error {
				ctx := context.Background()
				// A child that fails inside Deliver reports the failure to
				// the caller and marks its parent failed.
				return e.Deliver(ctx, runOf(in, "call").Child, "p", reply)
			})
	}
	g.check()
}

func TestCompatRetriesAndFailure(t *testing.T) {
	g := newGolden(t)
	def := &wf.TypeDef{
		Name: "flaky",
		Steps: []wf.StepDef{
			{Name: "try", Kind: wf.StepTask, Handler: "flaky", Retries: 3},
			{Name: "boom", Kind: wf.StepTask, Handler: "alwaysfail"},
		},
		Arcs: []wf.Arc{{From: "try", To: "boom"}},
	}
	setup := func(h *wf.Handlers, sent *[]string) wf.PortFunc {
		calls := 0
		h.Register("flaky", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			calls++
			if calls < 3 {
				return fmt.Errorf("transient %d", calls)
			}
			return nil
		})
		h.Register("alwaysfail", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			return fmt.Errorf("terminal fault")
		})
		return nil
	}
	runCompat(t, g, "retries", setup, []*wf.TypeDef{def}, nil, nil)
	g.check()
}

func TestCompatDeadPathPropagation(t *testing.T) {
	g := newGolden(t)
	def := &wf.TypeDef{
		Name: "dead",
		Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepNoop},
			{Name: "b", Kind: wf.StepNoop},
			{Name: "c", Kind: wf.StepNoop, Join: wf.JoinAll},
			{Name: "d", Kind: wf.StepNoop, Join: wf.JoinAny},
		},
		Arcs: []wf.Arc{
			{From: "a", To: "b", Condition: "false"},
			{From: "a", To: "c"}, {From: "b", To: "c"},
			{From: "c", To: "d"}, {From: "b", To: "d"},
		},
	}
	runCompat(t, g, "deadpath", noPorts, []*wf.TypeDef{def}, nil, nil)
	g.check()
}

// TestCompatRandomDAGCorpus sweeps the random-DAG generator over a fixed
// seed: every generated type must reproduce its golden transcript.
func TestCompatRandomDAGCorpus(t *testing.T) {
	g := newGolden(t)
	r := rand.New(rand.NewSource(41))
	setup := func(h *wf.Handlers, sent *[]string) wf.PortFunc {
		h.Register("count", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
		return nil
	}
	for iter := 0; iter < 120; iter++ {
		def := randomDAG(r, 2+r.Intn(4), 3)
		n := float64(r.Intn(3))
		runCompat(t, g, fmt.Sprintf("dag-%d", iter), setup,
			[]*wf.TypeDef{def}, map[string]any{"n": n}, nil)
	}
	g.check()
}

// TestParallelWideWorkflow checks WithStepParallelism correctness (not
// ordering): a wide fan-out of declared-access tasks and sends completes
// with every per-step effect applied and every port hit exactly once.
func TestParallelWideWorkflow(t *testing.T) {
	const width = 8
	def := &wf.TypeDef{Name: "wide"}
	def.Steps = append(def.Steps, wf.StepDef{Name: "in", Kind: wf.StepNoop})
	join := wf.StepDef{Name: "out", Kind: wf.StepNoop, Join: wf.JoinAll}
	for i := 0; i < width; i++ {
		task := fmt.Sprintf("t%d", i)
		send := fmt.Sprintf("s%d", i)
		def.Steps = append(def.Steps,
			wf.StepDef{Name: task, Kind: wf.StepTask, Handler: "stamp",
				Reads: []string{"seed"}, Writes: []string{task}},
			wf.StepDef{Name: send, Kind: wf.StepSend, Port: "p" + task, DataKey: "seed"},
		)
		def.Arcs = append(def.Arcs,
			wf.Arc{From: "in", To: task}, wf.Arc{From: task, To: send},
			wf.Arc{From: send, To: "out"})
	}
	def.Steps = append(def.Steps, join)

	h := wf.NewHandlers()
	h.Register("stamp", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		in.Data[s.Name] = "done-" + s.Name
		return nil
	})
	var mu = make(chan struct{}, 1)
	ports := map[string]int{}
	mu <- struct{}{}
	portFn := func(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error {
		<-mu
		ports[s.Port]++
		mu <- struct{}{}
		return nil
	}
	e := wf.NewEngine("wide", wfstore.NewMemStore(), h, portFn, wf.WithStepParallelism(4))
	if err := e.Deploy(def); err != nil {
		t.Fatal(err)
	}
	in, err := e.Start(context.Background(), "wide", map[string]any{"seed": "x"})
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted {
		t.Fatalf("state %s: %s", in.State, in.Error)
	}
	for i := 0; i < width; i++ {
		task := fmt.Sprintf("t%d", i)
		if in.Data[task] != "done-"+task {
			t.Fatalf("task %s write lost: %v", task, in.Data[task])
		}
		if ports["p"+task] != 1 {
			t.Fatalf("port p%s hit %d times", task, ports["p"+task])
		}
		if in.StepStateOf(task) != wf.StepCompleted || runOf(in, task).Attempts != 1 {
			t.Fatalf("step %s: %+v", task, runOf(in, task))
		}
	}
}

// TestParallelWideSendsOverlap checks that WithStepParallelism overlaps the
// port calls of a batch: a seed step fans out to eight sends, and the port
// function holds each call until all eight are inside it. At parallelism 1
// the first send waits out the deadline and the instance fails.
func TestParallelWideSendsOverlap(t *testing.T) {
	const fan = 8
	def := &wf.TypeDef{Name: "wide", Steps: []wf.StepDef{{Name: "seed", Kind: wf.StepNoop}}}
	for i := 0; i < fan; i++ {
		send := fmt.Sprintf("send%d", i)
		def.Steps = append(def.Steps, wf.StepDef{Name: send, Kind: wf.StepSend, Port: fmt.Sprintf("p%d", i)})
		def.Arcs = append(def.Arcs, wf.Arc{From: "seed", To: send}, wf.Arc{From: send, To: "done"})
	}
	def.Steps = append(def.Steps, wf.StepDef{Name: "done", Kind: wf.StepNoop, Join: wf.JoinAll})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var mu sync.Mutex
	inside, peak := 0, 0
	all := make(chan struct{})
	portFn := func(_ context.Context, in *wf.Instance, s *wf.StepDef, payload any) error {
		mu.Lock()
		inside++
		if inside > peak {
			peak = inside
			if peak == fan {
				close(all)
			}
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			inside--
			mu.Unlock()
		}()
		select {
		case <-all:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	e := wf.NewEngine("wide", wfstore.NewMemStore(), nil, portFn, wf.WithStepParallelism(fan))
	if err := e.Deploy(def); err != nil {
		t.Fatal(err)
	}
	in, err := e.Start(ctx, "wide", map[string]any{"document": "payload"})
	mu.Lock()
	got := peak
	mu.Unlock()
	if err != nil {
		t.Fatalf("%d of %d sends were in flight at once: %v", got, fan, err)
	}
	if in.State != wf.InstCompleted || got != fan {
		t.Fatalf("state %s with %d of %d sends in flight at once", in.State, got, fan)
	}
}

// TestParallelBatchFailure: a failing member of a concurrent batch fails the
// instance exactly once, and the batch members ahead of it are acknowledged.
func TestParallelBatchFailure(t *testing.T) {
	def := &wf.TypeDef{
		Name: "pfail",
		Steps: []wf.StepDef{
			{Name: "in", Kind: wf.StepNoop},
			{Name: "s0", Kind: wf.StepSend, Port: "ok"},
			{Name: "s1", Kind: wf.StepSend, Port: "bad"},
			{Name: "out", Kind: wf.StepNoop, Join: wf.JoinAll},
		},
		Arcs: []wf.Arc{
			{From: "in", To: "s0"}, {From: "in", To: "s1"},
			{From: "s0", To: "out"}, {From: "s1", To: "out"},
		},
	}
	portFn := func(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error {
		if s.Port == "bad" {
			return fmt.Errorf("wire down")
		}
		return nil
	}
	e := wf.NewEngine("pf", wfstore.NewMemStore(), nil, portFn, wf.WithStepParallelism(4))
	if err := e.Deploy(def); err != nil {
		t.Fatal(err)
	}
	in, err := e.Start(context.Background(), "pfail", nil)
	if err == nil {
		t.Fatal("expected start error")
	}
	if in.State != wf.InstFailed {
		t.Fatalf("state %s", in.State)
	}
	if in.StepStateOf("s0") != wf.StepCompleted {
		t.Fatalf("s0 state %s, want completed (its side effect happened)", in.StepStateOf("s0"))
	}
	if in.StepStateOf("s1") != wf.StepFailed {
		t.Fatalf("s1 state %s", in.StepStateOf("s1"))
	}
}
