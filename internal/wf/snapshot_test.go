package wf_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/wf"
	"repro/internal/wfstore"
)

// snapshotState renders everything a transition could change in a stored
// snapshot: its header, data, step runs, arc signals and history.
func snapshotState(in *wf.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s@%d %s error=%q parent=%s/%s\n", in.ID, in.Type, in.Version, in.State, in.Error, in.Parent, in.ParentStep)
	keys := make([]string, 0, len(in.Data))
	for k := range in.Data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "data %s: %T %v\n", k, in.Data[k], in.Data[k])
	}
	in.RangeSteps(func(name string, run wf.StepRun) bool {
		fmt.Fprintf(&b, "step %s: %+v\n", name, run)
		return true
	})
	in.RangeArcs(func(key string, sig int) bool {
		fmt.Fprintf(&b, "arc %s: %d\n", key, sig)
		return true
	})
	for _, ev := range in.History {
		fmt.Fprintf(&b, "event %+v\n", ev)
	}
	return b.String()
}

// readSnapshot reads an instance from the engine's store together with its
// state rendered at read time.
func readSnapshot(t *testing.T, e *wf.Engine, id string) (got *wf.Instance, atRead string) {
	t.Helper()
	got, err := e.Instance(id)
	if err != nil {
		t.Fatal(err)
	}
	return got, snapshotState(got)
}

func assertUnchanged(t *testing.T, got *wf.Instance, atRead string) {
	t.Helper()
	if now := snapshotState(got); now != atRead {
		t.Fatalf("stored snapshot %s changed after it was read:\n now:\n%s\n at read:\n%s", got.ID, now, atRead)
	}
}

// TestStoredSnapshotIsolation: a snapshot read from the workflow database
// is never changed by a later transition of its instance — the engine
// advances a private copy and stores that as the next snapshot.
func TestStoredSnapshotIsolation(t *testing.T) {
	ctx := context.Background()

	t.Run("Deliver", func(t *testing.T) {
		e, h := newEngine(t, nil)
		h.Register("mark", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			in.Data["marked"] = true
			return nil
		})
		deploy(t, e, &wf.TypeDef{
			Name: "iso",
			Steps: []wf.StepDef{
				{Name: "wait", Kind: wf.StepReceive, Port: "in"},
				{Name: "mark", Kind: wf.StepTask, Handler: "mark"},
				{Name: "marked", Kind: wf.StepNoop},
				{Name: "unmarked", Kind: wf.StepNoop},
			},
			Arcs: []wf.Arc{
				{From: "wait", To: "mark"},
				{From: "mark", To: "marked", Condition: "marked"},
				{From: "mark", To: "unmarked", Condition: "!marked"},
			},
		})
		in, err := e.Start(ctx, "iso", map[string]any{"marked": false})
		if err != nil {
			t.Fatal(err)
		}
		snap, atRead := readSnapshot(t, e, in.ID)
		if err := e.Deliver(ctx, in.ID, "in", "payload"); err != nil {
			t.Fatal(err)
		}
		assertUnchanged(t, snap, atRead)
		if now, _ := e.Instance(in.ID); now.State != wf.InstCompleted || now.StepStateOf("unmarked") != wf.StepSkipped {
			t.Fatalf("after Deliver: %s", now.Summary())
		}
	})

	t.Run("Expire", func(t *testing.T) {
		e, _ := timeoutEngine(t)
		in, err := e.Start(ctx, "with-timeout", nil)
		if err != nil {
			t.Fatal(err)
		}
		snap, atRead := readSnapshot(t, e, in.ID)
		if err := e.Expire(ctx, in.ID, "receive POA"); err != nil {
			t.Fatal(err)
		}
		assertUnchanged(t, snap, atRead)
		if now, _ := e.Instance(in.ID); now.State != wf.InstCompleted {
			t.Fatalf("after Expire: %s", now.Summary())
		}
	})

	t.Run("child completes parent", func(t *testing.T) {
		e, _ := newEngine(t, nil)
		deploy(t, e, &wf.TypeDef{
			Name: "child",
			Steps: []wf.StepDef{
				{Name: "receive PO", Kind: wf.StepReceive, Port: "po-in"},
				{Name: "process", Kind: wf.StepNoop},
			},
			Arcs: []wf.Arc{{From: "receive PO", To: "process"}},
		})
		deploy(t, e, &wf.TypeDef{
			Name: "parent",
			Steps: []wf.StepDef{
				{Name: "sub", Kind: wf.StepSubworkflow, Subworkflow: "child"},
				{Name: "after", Kind: wf.StepNoop},
			},
			Arcs: []wf.Arc{{From: "sub", To: "after"}},
		})
		parent, err := e.Start(ctx, "parent", nil)
		if err != nil {
			t.Fatal(err)
		}
		childID := runOf(parent, "sub").Child
		psnap, patRead := readSnapshot(t, e, parent.ID)
		csnap, catRead := readSnapshot(t, e, childID)
		if err := e.Deliver(ctx, childID, "po-in", "PO payload"); err != nil {
			t.Fatal(err)
		}
		assertUnchanged(t, psnap, patRead)
		assertUnchanged(t, csnap, catRead)
		if now, _ := e.Instance(parent.ID); now.State != wf.InstCompleted {
			t.Fatalf("parent after child completed: %s", now.Summary())
		}
	})
}

// TestInstanceReadDuringDeliver: one goroutine reads stored snapshots while
// another advances the same instances. Run it under -race: a snapshot that
// Deliver edits in place is a data race with its reader.
func TestInstanceReadDuringDeliver(t *testing.T) {
	const receives, instances = 30, 4
	def := &wf.TypeDef{Name: "chain"}
	for i := 0; i < receives; i++ {
		def.Steps = append(def.Steps, wf.StepDef{Name: fmt.Sprintf("r%d", i), Kind: wf.StepReceive, Port: fmt.Sprintf("p%d", i)})
		if i > 0 {
			def.Arcs = append(def.Arcs, wf.Arc{From: fmt.Sprintf("r%d", i-1), To: fmt.Sprintf("r%d", i)})
		}
	}
	e := wf.NewEngine("conc", wfstore.NewMemStore(), nil, nil)
	deploy(t, e, def)
	ctx := context.Background()
	var ids []string
	for i := 0; i < instances; i++ {
		in, err := e.Start(ctx, "chain", map[string]any{"n": i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, in.ID)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, id := range ids {
				in, err := e.Instance(id)
				if err != nil {
					t.Error(err)
					return
				}
				// Read every part of the snapshot a transition writes, and
				// check that the parts agree: the chain has completed k
				// receives when it has signaled min(k, receives-1) arcs and
				// waits on one step until the last receive completes.
				_ = in.Summary()
				if n := len(in.History); n > 0 && in.History[n-1].Seq != n {
					t.Errorf("%s: last event seq %d of %d", id, in.History[n-1].Seq, n)
				}
				completed, waiting, arcs := 0, 0, 0
				in.RangeSteps(func(name string, run wf.StepRun) bool {
					switch run.State {
					case wf.StepCompleted:
						completed++
					case wf.StepWaiting:
						waiting++
					}
					return true
				})
				in.RangeArcs(func(key string, sig int) bool {
					arcs++
					return true
				})
				if want := min(completed, receives-1); arcs != want || waiting != 1 && completed < receives {
					t.Errorf("%s: %d receives completed, %d waiting, %d arcs signaled (want %d)", id, completed, waiting, arcs, want)
				}
				_ = in.StepStateOf("r0")
				_ = in.Data["document"]
			}
		}
	}()
	var err error
deliver:
	for i := 0; i < receives; i++ {
		for _, id := range ids {
			if err = e.Deliver(ctx, id, fmt.Sprintf("p%d", i), i); err != nil {
				break deliver
			}
		}
	}
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if in, _ := e.Instance(id); in.State != wf.InstCompleted {
			t.Fatalf("%s: %s", id, in.Summary())
		}
	}
}
