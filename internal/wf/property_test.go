package wf_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/journal"
	"repro/internal/wf"
	"repro/internal/wfstore"
)

// randomDAG generates a random layered workflow type: task steps arranged
// in layers with forward arcs, random conditions (always-true, always-false
// or data-dependent), and random join kinds. Every generated type is valid
// by construction.
func randomDAG(r *rand.Rand, layers, width int) *wf.TypeDef {
	t := &wf.TypeDef{Name: fmt.Sprintf("dag-%d", r.Int()), Version: 1}
	names := make([][]string, layers)
	for l := 0; l < layers; l++ {
		n := 1 + r.Intn(width)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("s%d_%d", l, i)
			join := wf.JoinAll
			if r.Intn(2) == 0 {
				join = wf.JoinAny
			}
			t.Steps = append(t.Steps, wf.StepDef{
				Name: name, Kind: wf.StepTask, Handler: "count", Join: join,
			})
			names[l] = append(names[l], name)
		}
	}
	conds := []string{"", "", "", "true", "false", "n > 1", "n <= 1"}
	for l := 1; l < layers; l++ {
		for _, to := range names[l] {
			// Each step gets 1..3 incoming arcs from the previous layer.
			k := 1 + r.Intn(3)
			for j := 0; j < k; j++ {
				from := names[l-1][r.Intn(len(names[l-1]))]
				t.Arcs = append(t.Arcs, wf.Arc{
					From: from, To: to, Condition: conds[r.Intn(len(conds))],
				})
			}
		}
	}
	return t
}

// TestPropertyRandomDAGsTerminate: every random DAG instance reaches a
// terminal state with every step terminal, no step executed more than
// once, and the history consistent.
func TestPropertyRandomDAGsTerminate(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for iter := 0; iter < 150; iter++ {
		def := randomDAG(r, 2+r.Intn(4), 3)
		h := wf.NewHandlers()
		execCount := map[string]int{}
		h.Register("count", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			execCount[s.Name]++
			return nil
		})
		e := wf.NewEngine("prop", wfstore.NewMemStore(), h, nil)
		if err := e.Deploy(def); err != nil {
			t.Fatalf("iter %d: deploy: %v", iter, err)
		}
		in, err := e.Start(ctx, def.Name, map[string]any{"n": float64(r.Intn(3))})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if in.State != wf.InstCompleted {
			t.Fatalf("iter %d: instance did not complete: %s (%s)", iter, in.State, in.Error)
		}
		in.RangeSteps(func(name string, run wf.StepRun) bool {
			switch run.State {
			case wf.StepCompleted, wf.StepSkipped:
			default:
				t.Fatalf("iter %d: step %s in non-terminal state %s of a completed instance", iter, name, run.State)
			}
			if execCount[name] > 1 {
				t.Fatalf("iter %d: step %s executed %d times", iter, name, execCount[name])
			}
			if run.State == wf.StepCompleted && execCount[name] != 1 {
				t.Fatalf("iter %d: completed step %s executed %d times", iter, name, execCount[name])
			}
			if run.State == wf.StepSkipped && execCount[name] != 0 {
				t.Fatalf("iter %d: skipped step %s was executed", iter, name)
			}
			return true
		})
		// History sequence is strictly increasing and ends with completion.
		for i := 1; i < len(in.History); i++ {
			if in.History[i].Seq != in.History[i-1].Seq+1 {
				t.Fatalf("iter %d: history gap", iter)
			}
		}
		if in.History[len(in.History)-1].What != "instance completed" {
			t.Fatalf("iter %d: last event %+v", iter, in.History[len(in.History)-1])
		}
	}
}

// TestPropertyRandomDAGsDeterministic: the same DAG and data always yield
// the same step states.
func TestPropertyRandomDAGsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for iter := 0; iter < 50; iter++ {
		def := randomDAG(r, 3, 3)
		run := func() map[string]wf.StepState {
			h := wf.NewHandlers()
			h.Register("count", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
			e := wf.NewEngine("det", wfstore.NewMemStore(), h, nil)
			if err := e.Deploy(def.Clone()); err != nil {
				t.Fatal(err)
			}
			in, err := e.Start(ctx, def.Name, map[string]any{"n": float64(2)})
			if err != nil {
				t.Fatal(err)
			}
			out := map[string]wf.StepState{}
			in.RangeSteps(func(name string, sr wf.StepRun) bool {
				out[name] = sr.State
				return true
			})
			return out
		}
		a, b := run(), run()
		for name := range a {
			if a[name] != b[name] {
				t.Fatalf("iter %d: step %s nondeterministic: %s vs %s", iter, name, a[name], b[name])
			}
		}
	}
}

// TestPropertyPersistenceRoundTrip: persisting and reloading a random
// instance preserves its step states and arcs (via the durable store).
func TestPropertyPersistenceRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for iter := 0; iter < 30; iter++ {
		def := randomDAG(r, 3, 2)
		path := t.TempDir() + "/wf.log"
		store, err := wfstore.OpenFileStore(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := wf.NewHandlers()
		h.Register("count", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
		e := wf.NewEngine("per", store, h, nil)
		if err := e.Deploy(def); err != nil {
			t.Fatal(err)
		}
		in, err := e.Start(ctx, def.Name, map[string]any{"n": float64(1)})
		if err != nil {
			t.Fatal(err)
		}
		store.Close()

		store2, err := wfstore.OpenFileStore(path, journal.Options{})
		if err != nil {
			t.Fatalf("iter %d: reopen: %v", iter, err)
		}
		got, err := store2.GetInstance(in.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != in.State {
			t.Fatalf("iter %d: state %s vs %s", iter, got.State, in.State)
		}
		in.RangeSteps(func(name string, sr wf.StepRun) bool {
			if got.StepStateOf(name) != sr.State {
				t.Fatalf("iter %d: step %s state lost", iter, name)
			}
			return true
		})
		signals := func(in *wf.Instance) map[string]int {
			m := map[string]int{}
			in.RangeArcs(func(key string, sig int) bool { m[key] = sig; return true })
			return m
		}
		if a, b := signals(got), signals(in); !reflect.DeepEqual(a, b) {
			t.Fatalf("iter %d: arc signals %v, stored %v", iter, a, b)
		}
		store2.Close()
	}
}
