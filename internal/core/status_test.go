package core

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/doc"
)

// TestStatusSnapshot pins the unified Status surface: it agrees with the
// accessors it replaces, carries the schema version, and serializes with
// the stable JSON keys remote clients depend on.
func TestStatusSnapshot(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "hub.journal")
	h := newFig14Hub(t, WithShards(2), WithWorkersPerShard(1), WithJournal(jpath))
	defer h.StopWorkers()
	defer h.CloseJournal()
	ctx := context.Background()

	g := doc.NewGenerator(1)
	for i := 0; i < 3; i++ {
		if _, err := h.Do(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)}); err != nil {
			t.Fatal(err)
		}
	}
	// One async exchange so the scheduler section is live.
	fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp2, seller)})
	if err != nil {
		t.Fatal(err)
	}
	if res := fut.Result(ctx); res.Err != nil {
		t.Fatal(res.Err)
	}

	st := h.Status()
	if st.Version != StatusVersion {
		t.Fatalf("version %d, want %d", st.Version, StatusVersion)
	}
	if st.Time.IsZero() || time.Since(st.Time) > time.Minute {
		t.Fatalf("implausible snapshot time %v", st.Time)
	}
	if got, want := st.Exchanges, h.counters.Snapshot(); got.Started != want.Started ||
		got.Failed != want.Failed || got.ByPartner["TP1"] != want.ByPartner["TP1"] {
		t.Fatalf("Exchanges diverges from the counters sink: %+v vs %+v", got, want)
	}
	if st.Exchanges.Started != 4 {
		t.Fatalf("started %d, want 4", st.Exchanges.Started)
	}
	if !st.Sched.Running || st.Sched.Shards != 2 || len(st.Sched.PerShard) == 0 {
		t.Fatalf("sched section: %+v", st.Sched)
	}
	if len(st.Stages) == 0 {
		t.Fatal("stages section empty after exchanges")
	}
	if !st.Journal.Enabled || st.Journal.PendingAdmits != 0 {
		t.Fatalf("journal section: %+v", st.Journal)
	}
	if st.DLQ.Depth != 0 {
		t.Fatalf("dlq depth %d, want 0", st.DLQ.Depth)
	}

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"version", "time", "exchanges", "stages", "sched", "dlq",
		"journal", "recovery", "config", "plans",
	} {
		if _, ok := keys[k]; !ok {
			t.Fatalf("stable key %q missing from %s", k, raw)
		}
	}
	// The versioned schema round-trips.
	var back StatusSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != StatusVersion || back.Exchanges.Started != 4 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestTakeDeadLetter pins the ID-addressed DLQ removal the wire protocol's
// resubmit op uses: take removes exactly one entry, a second take misses,
// and a failed resubmission of the taken entry re-parks automatically.
func TestTakeDeadLetter(t *testing.T) {
	h := newFig14Hub(t)
	defer h.StopWorkers()
	ctx := context.Background()

	var faults []*backend.Faulty
	h.WrapBackends(func(sys backend.System) backend.System {
		f := backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 1.0, Seed: 5})
		faults = append(faults, f)
		return f
	})
	h.SetDefaultRetryPolicy(RetryPolicy{MaxAttempts: 2})

	g := doc.NewGenerator(2)
	if _, err := h.Do(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)}); err == nil {
		t.Fatal("hard-down backend succeeded")
	}
	dls := h.DeadLetters()
	if len(dls) != 1 {
		t.Fatalf("dlq %d, want 1", len(dls))
	}
	exID := dls[0].ExchangeID

	if _, ok := h.TakeDeadLetter("ex-does-not-exist"); ok {
		t.Fatal("took a nonexistent entry")
	}
	dl, ok := h.TakeDeadLetter(exID)
	if !ok || dl.ExchangeID != exID {
		t.Fatalf("take %q: ok=%v dl=%+v", exID, ok, dl)
	}
	if len(h.DeadLetters()) != 0 {
		t.Fatal("take left the entry queued")
	}
	if _, ok := h.TakeDeadLetter(exID); ok {
		t.Fatal("second take succeeded")
	}

	// A failed rerun of the taken entry re-parks a fresh entry.
	if _, err := h.Resubmit(ctx, dl); err == nil {
		t.Fatal("resubmit against hard-down backend succeeded")
	}
	if len(h.DeadLetters()) != 1 {
		t.Fatal("failed resubmit did not re-park")
	}

	// Heal, take, rerun: the queue ends empty.
	for _, f := range faults {
		f.SetSchedule(backend.FaultSchedule{})
	}
	dl, ok = h.TakeDeadLetter(h.DeadLetters()[0].ExchangeID)
	if !ok {
		t.Fatal("take after re-park failed")
	}
	if _, err := h.Resubmit(ctx, dl); err != nil {
		t.Fatal(err)
	}
	if len(h.DeadLetters()) != 0 {
		t.Fatal("healed resubmit left the queue non-empty")
	}
}
