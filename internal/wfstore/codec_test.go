package wfstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/doc"
	"repro/internal/interorg"
	"repro/internal/wf"
)

// storedFormGolden holds the bytes encodeInstance writes for every snapshot
// of storedForm's drives. It was written before instances were laid out by
// their plans, when step runs and arc signals were maps the codec marshalled
// directly; the layout must not change a byte of the stored form.
var storedFormGolden = filepath.Join("testdata", "stored_instances.golden")

// storedForm drives engines through every state the stored form records and
// renders each store's instances, ordered by ID, after every operation: step
// runs in every state, a child ID, a step error, retry attempts, true and
// false arcs, a loop reset, an instance before any arc fired, and a
// migration's tombstone and migrated instance.
func storedForm(t *testing.T) []byte {
	t.Helper()
	ctx := context.Background()
	var buf bytes.Buffer
	render := func(label string, s wf.Store) {
		fmt.Fprintf(&buf, "# %s\n", label)
		ids, err := s.ListInstances()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			in, err := s.GetInstance(id)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := encodeInstance(in)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(raw)
			buf.WriteByte('\n')
		}
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	h := wf.NewHandlers()
	h.Register("flaky", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		n, _ := in.Data["tries"].(float64)
		in.Data["tries"] = n + 1
		if n < 2 {
			return errors.New("back end busy")
		}
		return nil
	})
	h.Register("boom", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		return errors.New("back end down")
	})
	h.Register("inc", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		in.Data["n"] = in.Data["n"].(float64) + 1
		return nil
	})
	ports := func(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error { return nil }
	store := NewMemStore()
	e := wf.NewEngine("gold", store, h, ports)
	for _, def := range []*wf.TypeDef{
		{
			Name: "gate", Version: 1,
			Steps: []wf.StepDef{
				{Name: "decide", Kind: wf.StepNoop},
				{Name: "wait", Kind: wf.StepReceive, Port: "in", OnTimeout: "late"},
				{Name: "alt", Kind: wf.StepNoop},
				{Name: "late", Kind: wf.StepNoop},
				{Name: "done", Kind: wf.StepNoop, Join: wf.JoinAny},
			},
			Arcs: []wf.Arc{
				{From: "decide", To: "wait", Condition: "go"},
				{From: "decide", To: "alt", Condition: "!go"},
				{From: "wait", To: "done"},
				{From: "alt", To: "done"},
				{From: "late", To: "done"},
			},
		},
		{
			Name: "kid", Version: 1,
			Steps: []wf.StepDef{
				{Name: "receive PO", Kind: wf.StepReceive, Port: "po"},
				{Name: "work", Kind: wf.StepNoop},
			},
			Arcs: []wf.Arc{{From: "receive PO", To: "work"}},
		},
		{
			Name: "mom", Version: 1,
			Steps: []wf.StepDef{
				{Name: "call", Kind: wf.StepSubworkflow, Subworkflow: "kid"},
				{Name: "after", Kind: wf.StepNoop},
			},
			Arcs: []wf.Arc{{From: "call", To: "after"}},
		},
		{
			Name: "retry", Version: 1,
			Steps: []wf.StepDef{
				{Name: "work", Kind: wf.StepTask, Handler: "flaky", Retries: 2},
				{Name: "done", Kind: wf.StepNoop},
			},
			Arcs: []wf.Arc{{From: "work", To: "done"}},
		},
		{
			Name: "fail", Version: 1,
			Steps: []wf.StepDef{
				{Name: "work", Kind: wf.StepTask, Handler: "boom"},
				{Name: "never", Kind: wf.StepNoop},
			},
			Arcs: []wf.Arc{{From: "work", To: "never"}},
		},
		{
			Name: "loop", Version: 1,
			Steps: []wf.StepDef{
				{Name: "inc", Kind: wf.StepTask, Handler: "inc"},
				{Name: "done", Kind: wf.StepNoop},
			},
			Arcs: []wf.Arc{
				{From: "inc", To: "done", Condition: "n >= 3"},
				{From: "inc", To: "inc", Condition: "n < 3", Loop: true},
			},
		},
		{
			Name: "poll", Version: 1,
			Steps: []wf.StepDef{
				{Name: "ask", Kind: wf.StepSend, Port: "q"},
				{Name: "answer", Kind: wf.StepReceive, Port: "a", DataKey: "reply"},
				{Name: "done", Kind: wf.StepNoop},
			},
			Arcs: []wf.Arc{
				{From: "ask", To: "answer"},
				{From: "answer", To: "done", Condition: `reply == "yes"`},
				{From: "answer", To: "ask", Condition: `reply != "yes"`, Loop: true},
			},
		},
	} {
		check(e.Deploy(def))
	}

	open, err := e.Start(ctx, "gate", map[string]any{"go": true, "source": "TP1", "blob": []byte{1, 2, 3}})
	check(err)
	expiring, err := e.Start(ctx, "gate", map[string]any{"go": true})
	check(err)
	mom, err := e.Start(ctx, "mom", map[string]any{"count": float64(3)})
	check(err)
	_, err = e.Start(ctx, "retry", nil)
	check(err)
	if _, err := e.Start(ctx, "fail", nil); err == nil {
		t.Fatal("fail: started without error")
	}
	_, err = e.Start(ctx, "loop", map[string]any{"n": float64(0)})
	check(err)
	poll, err := e.Start(ctx, "poll", nil)
	check(err)
	render("started", store)

	check(e.Deliver(ctx, poll.ID, "a", "no"))
	render("poll after a loop reset", store)
	check(e.Deliver(ctx, open.ID, "in", "payload"))
	check(e.Expire(ctx, expiring.ID, "wait"))
	check(e.Deliver(ctx, childOf(t, e, mom.ID), "po", "PO payload"))
	check(e.Deliver(ctx, poll.ID, "a", "yes"))
	render("delivered and expired", store)

	// A migration: the target engine holds a clone of the source's type.
	from := wf.NewEngine("orgA", NewMemStore(), wf.NewHandlers(), nil)
	to := wf.NewEngine("orgB", NewMemStore(), wf.NewHandlers(), nil)
	check(from.Deploy(&wf.TypeDef{
		Name: "po-approval", Version: 1,
		Steps: []wf.StepDef{
			{Name: "store PO", Kind: wf.StepNoop},
			{Name: "wait funds", Kind: wf.StepReceive, Port: "funds", DataKey: "funds"},
			{Name: "approve PO", Kind: wf.StepNoop},
			{Name: "done", Kind: wf.StepNoop, Join: wf.JoinAny},
		},
		Arcs: []wf.Arc{
			{From: "store PO", To: "wait funds"},
			{From: "wait funds", To: "approve PO", Condition: "PO.amount > 550000"},
			{From: "wait funds", To: "done", Condition: "PO.amount <= 550000"},
			{From: "approve PO", To: "done"},
		},
	}))
	po := doc.NewGenerator(1).POWithAmount(doc.Party{ID: "TP1", Name: "X"}, doc.Party{ID: "S", Name: "Y"}, 600000)
	moved, err := from.Start(ctx, "po-approval", map[string]any{"document": po})
	check(err)
	if _, err := (interorg.Migrator{AutoTypeMigration: true}).MigrateInstance(from, to, moved.ID); err != nil {
		t.Fatal(err)
	}
	render("migration source", from.Store())
	render("migration target", to.Store())
	check(to.Deliver(ctx, moved.ID, "funds", "allocated"))
	render("migration target after Deliver", to.Store())
	return buf.Bytes()
}

// childOf returns the child instance of the parent's "call" step, found as
// the one stored instance whose parent is id.
func childOf(t *testing.T, e *wf.Engine, id string) string {
	t.Helper()
	ids, err := e.Store().ListInstances()
	if err != nil {
		t.Fatal(err)
	}
	for _, cid := range ids {
		if in, err := e.Instance(cid); err == nil && in.Parent == id {
			return cid
		}
	}
	t.Fatalf("instance %s has no child", id)
	return ""
}

// TestStoredFormGolden: encodeInstance writes the golden bytes for every
// snapshot of storedForm's drives, and each golden line decodes to an
// instance that encodes back to the same line.
func TestStoredFormGolden(t *testing.T) {
	got := storedForm(t)
	want, err := os.ReadFile(storedFormGolden)
	if err != nil {
		t.Fatal(err)
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
			t.Fatalf("%s:%d differs\n got: %s\nwant: %s", storedFormGolden, i+1, a, b)
		}
	}
	for i, line := range wl {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		in, err := decodeInstance(json.RawMessage(line))
		if err != nil {
			t.Fatalf("%s:%d: %v", storedFormGolden, i+1, err)
		}
		raw, err := encodeInstance(in)
		if err != nil {
			t.Fatalf("%s:%d: %v", storedFormGolden, i+1, err)
		}
		if string(raw) != line {
			t.Fatalf("%s:%d does not survive a decode\n got: %s\nwant: %s", storedFormGolden, i+1, raw, line)
		}
	}
}

// FuzzDecodeInstance: any input either fails to decode or decodes to an
// instance whose encoding is a fixed point of decode and encode.
func FuzzDecodeInstance(f *testing.F) {
	if want, err := os.ReadFile(storedFormGolden); err == nil {
		for _, line := range strings.Split(string(want), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				f.Add([]byte(line))
			}
		}
	}
	f.Add([]byte(`{"id":"i1","steps":{"a":null,"b":{"State":""}},"arcs":{"x→y":0,"y→z":7}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		in, err := decodeInstance(raw)
		if err != nil {
			return
		}
		once, err := encodeInstance(in)
		if err != nil {
			t.Fatalf("decoded instance does not encode: %v", err)
		}
		again, err := decodeInstance(once)
		if err != nil {
			t.Fatalf("encoding does not decode: %v\n%s", err, once)
		}
		twice, err := encodeInstance(again)
		if err != nil {
			t.Fatalf("re-decoded instance does not encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point\n once: %s\ntwice: %s", once, twice)
		}
	})
}
