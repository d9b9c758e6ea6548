package wfstore

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/doc"
	"repro/internal/journal"
	"repro/internal/wf"
)

func sampleType() *wf.TypeDef {
	return &wf.TypeDef{
		Name: "t", Version: 1,
		Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepNoop},
			{Name: "wait", Kind: wf.StepReceive, Port: "in"},
			{Name: "b", Kind: wf.StepNoop},
		},
		Arcs: []wf.Arc{{From: "a", To: "wait"}, {From: "wait", To: "b"}},
	}
}

func TestMemStoreTypes(t *testing.T) {
	s := NewMemStore()
	def := sampleType()
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutType(def); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetType("t", 1)
	if err != nil || got.Name != "t" {
		t.Fatalf("%v %v", got, err)
	}
	// Version 0 resolves to latest.
	v2 := def.Clone()
	v2.Version = 2
	if err := v2.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutType(v2); err != nil {
		t.Fatal(err)
	}
	latest, err := s.GetType("t", 0)
	if err != nil || latest.Version != 2 {
		t.Fatalf("latest %v %v", latest, err)
	}
	if !s.HasType("t", 1) || s.HasType("t", 9) || !s.HasType("t", 0) {
		t.Fatal("HasType wrong")
	}
	keys, _ := s.ListTypes()
	if len(keys) != 2 || keys[0] != "t@1" || keys[1] != "t@2" {
		t.Fatalf("keys %v", keys)
	}
	if _, err := s.GetType("ghost", 0); !errors.Is(err, wf.ErrNotFound) {
		t.Fatalf("err %v", err)
	}
}

func TestMemStoreInstances(t *testing.T) {
	s := NewMemStore()
	in := &wf.Instance{ID: "i1", Type: "t", Version: 1, State: wf.InstRunning,
		Data: map[string]any{}}
	if err := s.PutInstance(in); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetInstance("i1")
	if err != nil || got.ID != "i1" {
		t.Fatalf("%v %v", got, err)
	}
	ids, _ := s.ListInstances()
	if len(ids) != 1 || ids[0] != "i1" {
		t.Fatalf("ids %v", ids)
	}
	if err := s.DeleteInstance("i1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetInstance("i1"); !errors.Is(err, wf.ErrNotFound) {
		t.Fatalf("err %v", err)
	}
}

func openFile(t *testing.T, path string) *FileStore {
	t.Helper()
	s, err := OpenFileStore(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.log")
	s := openFile(t, path)
	def := sampleType()
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutType(def); err != nil {
		t.Fatal(err)
	}
	po := doc.NewGenerator(1).PO(doc.Party{ID: "TP1", Name: "A"}, doc.Party{ID: "S", Name: "B"})
	in := &wf.Instance{
		ID: "i1", Type: "t", Version: 1, State: wf.InstRunning,
		Data: map[string]any{
			"document": po, "source": "TP1", "count": float64(3),
			"flag": true, "blob": []byte{1, 2, 3},
		},
		History: []wf.Event{
			{Seq: 1, Step: "", What: "created"},
			{Seq: 2, Step: "a", What: "completed"},
		},
	}
	in.SetRuns(map[string]wf.StepRun{"a": {State: wf.StepCompleted}}, map[string]int{"a→wait": 1})
	if err := s.PutInstance(in); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify replay.
	s2 := openFile(t, path)
	if !s2.HasType("t", 1) {
		t.Fatal("type lost")
	}
	got, err := s2.GetInstance("i1")
	if err != nil {
		t.Fatal(err)
	}
	gotPO, ok := got.Data["document"].(*doc.PurchaseOrder)
	if !ok {
		t.Fatalf("document decoded as %T", got.Data["document"])
	}
	if gotPO.ID != po.ID || gotPO.Amount() != po.Amount() {
		t.Fatalf("document mismatch: %v vs %v", gotPO, po)
	}
	if got.Data["count"] != float64(3) || got.Data["flag"] != true {
		t.Fatalf("primitives lost: %v", got.Data)
	}
	if b := got.Data["blob"].([]byte); len(b) != 3 || b[0] != 1 {
		t.Fatalf("blob lost: %v", b)
	}
	arcs := map[string]int{}
	got.RangeArcs(func(key string, sig int) bool { arcs[key] = sig; return true })
	if len(arcs) != 1 || arcs["a→wait"] != 1 || got.StepStateOf("a") != wf.StepCompleted {
		t.Fatal("runtime state lost")
	}
	if len(got.History) != 2 {
		t.Fatalf("history lost: %v", got.History)
	}
}

func TestFileStoreDelete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.log")
	s := openFile(t, path)
	in := &wf.Instance{ID: "i1", Type: "t", Version: 1, State: wf.InstCompleted,
		Data: map[string]any{}}
	if err := s.PutInstance(in); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteInstance("i1"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openFile(t, path)
	if _, err := s2.GetInstance("i1"); !errors.Is(err, wf.ErrNotFound) {
		t.Fatalf("deleted instance resurrected: %v", err)
	}
}

func TestFileStoreRejectsUnsupportedData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.log")
	s := openFile(t, path)
	in := &wf.Instance{ID: "i1", Type: "t", Version: 1, State: wf.InstRunning,
		Data: map[string]any{"weird": struct{ X int }{1}}}
	if err := s.PutInstance(in); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("err %v", err)
	}
}

// TestFileStoreCorruptLog: a frame whose CRC holds but whose content the
// store cannot apply is not disk damage the journal can quarantine; it
// fails the open. A file of garbage alone is a torn tail under the
// journal's rule: it is truncated and the store opens empty.
func TestFileStoreCorruptLog(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		rec  journal.Record
	}{
		{"unknown-kind", journal.Record{Kind: "bogus", Key: "x"}},
		{"invalid-type", journal.Record{Kind: recType, Key: "t@1", Payload: json.RawMessage(`{"Name":"","Version":1}`)}},
		{"undecodable-instance", journal.Record{Kind: recInst, Key: "i1", Payload: json.RawMessage(`{"id":"i1","data":{"x":{"k":"?","v":1}}}`)}},
	} {
		path := filepath.Join(dir, tc.name+".log")
		frame, err := journal.Encode(tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileStore(path, journal.Options{}); err == nil {
			t.Fatalf("%s: corrupt log accepted", tc.name)
		}
	}

	path := filepath.Join(dir, "garbage.log")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openFile(t, path)
	types, _ := s.ListTypes()
	ids, _ := s.ListInstances()
	if len(types) != 0 || len(ids) != 0 {
		t.Fatalf("garbage log replayed types %v, instances %v", types, ids)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("garbage log not truncated: %v, %v", fi, err)
	}
}

// TestCrashRecoveryResumesParkedInstance is the Figure 4 durability story:
// an engine starts an instance that parks on a receive; the process
// "crashes"; a fresh engine over the same log delivers the message and the
// instance completes.
func TestCrashRecoveryResumesParkedInstance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.log")
	ctx := context.Background()

	s1 := openFile(t, path)
	e1 := wf.NewEngine("e1", s1, wf.NewHandlers(), nil)
	def := sampleType()
	if err := e1.Deploy(def); err != nil {
		t.Fatal(err)
	}
	in, err := e1.Start(ctx, "t", map[string]any{"source": "TP1"})
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstRunning {
		t.Fatalf("state %s", in.State)
	}
	s1.Close() // crash

	s2 := openFile(t, path)
	e2 := wf.NewEngine("e2", s2, wf.NewHandlers(), nil)
	if err := e2.Deliver(ctx, in.ID, "in", "late payload"); err != nil {
		t.Fatal(err)
	}
	got, err := e2.Instance(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != wf.InstCompleted {
		t.Fatalf("state after recovery: %s", got.State)
	}
	if got.Data["document"] != "late payload" {
		t.Fatalf("payload %v", got.Data["document"])
	}
}

func TestEngineRunsOnFileStore(t *testing.T) {
	// Full engine cycle against the durable store with a document payload.
	path := filepath.Join(t.TempDir(), "wf.log")
	s := openFile(t, path)
	h := wf.NewHandlers()
	h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	e := wf.NewEngine("e", s, h, nil)
	def := &wf.TypeDef{
		Name: "flow", Version: 1,
		Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepTask, Handler: "nop"},
			{Name: "b", Kind: wf.StepTask, Handler: "nop"},
		},
		Arcs: []wf.Arc{{From: "a", To: "b"}},
	}
	if err := e.Deploy(def); err != nil {
		t.Fatal(err)
	}
	po := doc.NewGenerator(2).PO(doc.Party{ID: "TP1", Name: "A"}, doc.Party{ID: "S", Name: "B"})
	in, err := e.Start(context.Background(), "flow", map[string]any{"document": po})
	if err != nil {
		t.Fatal(err)
	}
	if in.State != wf.InstCompleted {
		t.Fatalf("state %s", in.State)
	}
	s.Close()
	s2 := openFile(t, path)
	got, err := s2.GetInstance(in.ID)
	if err != nil || got.State != wf.InstCompleted {
		t.Fatalf("%v %v", got, err)
	}
}

// TestFailedPersistLeavesLastDurableSnapshot: when the log append of a
// transition fails, the store keeps serving the last snapshot the log
// holds — what a restart would replay — not the unpersisted transition.
// A failed append voids only its own record: once the disk heals, the
// next transition persists and a reopen replays it.
func TestFailedPersistLeavesLastDurableSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*journal.FaultFS)
		want error
	}{
		{"write-error", func(ffs *journal.FaultFS) { ffs.Arm(journal.FaultWriteErr) }, journal.ErrInjected},
		{"short-write", func(ffs *journal.FaultFS) { ffs.Arm(journal.FaultShortWrite) }, journal.ErrInjected},
		{"enospc", func(ffs *journal.FaultFS) { ffs.ArmENOSPC(10) }, syscall.ENOSPC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wf.log")
			ffs := journal.NewFaultFS(nil, 1)
			s, err := OpenFileStore(path, journal.Options{Fsync: journal.FsyncAlways, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			e := wf.NewEngine("e", s, wf.NewHandlers(), nil)
			if err := e.Deploy(sampleType()); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			in, err := e.Start(ctx, "t", map[string]any{"source": "TP1"})
			if err != nil {
				t.Fatal(err)
			}

			tc.arm(ffs)
			if err := e.Deliver(ctx, in.ID, "in", "payload"); !errors.Is(err, tc.want) {
				t.Fatalf("Deliver under a failing disk: err = %v, want %v", err, tc.want)
			}
			got, err := e.Instance(in.ID)
			if err != nil {
				t.Fatal(err)
			}
			if replayed := replayCopy(t, path, in.ID); !sameSnapshot(t, got, replayed) {
				t.Fatalf("store serves %s (%d events), its log replays %s (%d events)",
					got.Summary(), len(got.History), replayed.Summary(), len(replayed.History))
			}
			if got.State != wf.InstRunning || got.StepStateOf("wait") != wf.StepWaiting {
				t.Fatalf("after the failed Deliver: %s", got.Summary())
			}

			ffs.Heal()
			if err := e.Deliver(ctx, in.ID, "in", "payload"); err != nil {
				t.Fatalf("Deliver after the disk healed: %v", err)
			}
			if got, err = e.Instance(in.ID); err != nil || got.State != wf.InstCompleted {
				t.Fatalf("after the healed Deliver: %v, %v", got, err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			replayed, err := openFile(t, path).GetInstance(in.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSnapshot(t, got, replayed) {
				t.Fatalf("store served %s, its reopened log replays %s", got.Summary(), replayed.Summary())
			}
		})
	}
}

// sameSnapshot reports whether two instances have the same stored form. An
// instance the engine advanced is laid out by its plan and one decoded
// from a log by step name, so their layouts differ where their state does
// not.
func sameSnapshot(t *testing.T, a, b *wf.Instance) bool {
	t.Helper()
	ra, err := encodeInstance(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := encodeInstance(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ra) == string(rb)
}

// replayCopy returns instance id as a restart would replay it, from a
// copy of the log at path so the live file is left alone.
func replayCopy(t *testing.T, path, id string) *wf.Instance {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp := path + ".copy"
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	in, err := openFile(t, cp).GetInstance(id)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestReplayedHistoryHasNoHeadroom: a snapshot replayed from the log keeps
// its history at exactly its length, as the engine's persist stores it,
// not in the larger array json.Unmarshal grew it in.
func TestReplayedHistoryHasNoHeadroom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.log")
	ctx := context.Background()
	s1 := openFile(t, path)
	e := wf.NewEngine("e", s1, wf.NewHandlers(), nil)
	if err := e.Deploy(sampleType()); err != nil {
		t.Fatal(err)
	}
	in, err := e.Start(ctx, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Deliver(ctx, in.ID, "in", "payload"); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	got, err := openFile(t, path).GetInstance(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.History) == 0 || cap(got.History) != len(got.History) {
		t.Fatalf("replayed history holds %d events in an array of %d, want an exact fit", len(got.History), cap(got.History))
	}
}
