package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
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

// TestTakeDeadLetter pins how Resubmit takes a dead letter off the queue by
// exchange ID, the queue's one exit: an ID the queue does not hold gets
// ErrNotDeadLettered, a rerun that fails parks its own exchange in place
// of the taken entry, of two concurrent calls for one ID only one reruns
// it, an entry without a retained request stays queued, and a rerun the
// drained hub refuses leaves its entry on the queue exactly once.
func TestTakeDeadLetter(t *testing.T) {
	h := newFig14Hub(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

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

	if _, err := h.Resubmit(ctx, "ex-does-not-exist"); !errors.Is(err, ErrNotDeadLettered) {
		t.Fatalf("Resubmit of an unknown ID = %v, want ErrNotDeadLettered", err)
	}

	// A rerun against the still-down backend runs, fails and parks its own
	// exchange in place of the taken entry.
	ex, err := h.Resubmit(ctx, exID)
	if err == nil {
		t.Fatal("resubmit against hard-down backend succeeded")
	}
	if dls = h.DeadLetters(); len(dls) != 1 || ex == nil || dls[0].ExchangeID != ex.ID {
		t.Fatalf("queue after a failed rerun = %+v, want the rerun's own entry", dls)
	}
	if _, err := h.Resubmit(ctx, exID); !errors.Is(err, ErrNotDeadLettered) {
		t.Fatalf("second Resubmit of %s = %v, want ErrNotDeadLettered", exID, err)
	}

	// Healed, two concurrent calls for one ID: the one that takes the entry
	// is held inside SAP, so the other finds the queue without it.
	for _, f := range faults {
		f.SetSchedule(backend.FaultSchedule{})
	}
	gate := gateSubmits(ctx, h, "SAP", 0)
	started := h.Status().Exchanges.Started
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := h.Resubmit(ctx, dls[0].ExchangeID)
			errs <- err
		}()
	}
	if err := <-errs; !errors.Is(err, ErrNotDeadLettered) {
		t.Fatalf("Resubmit racing the rerun = %v, want ErrNotDeadLettered", err)
	}
	close(gate.open)
	if err := <-errs; err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if n := h.Status().Exchanges.Started - started; n != 1 || gate.maxInside() != 1 {
		t.Fatalf("concurrent Resubmits started %d exchanges (%d inside SAP at once), want 1", n, gate.maxInside())
	}
	if n := len(h.DeadLetters()); n != 0 {
		t.Fatalf("healed rerun left %d entries queued", n)
	}

	// An entry without a retained request stays queued.
	parkBare(h, DeadLetter{ExchangeID: "ex-bare", Partner: tp1.ID}, false)
	if _, err := h.Resubmit(ctx, "ex-bare"); err == nil || errors.Is(err, ErrNotDeadLettered) {
		t.Fatalf("Resubmit of an entry without a request = %v, want it refused", err)
	}

	// A rerun that fails before its exchange exists (its partner is not in
	// the model) parks nothing of its own: the entry goes back.
	gone := doc.Party{ID: "TP-GONE", Name: "Departed Buyer"}
	orphan := Request{Kind: DocPO, PO: g.PO(gone, seller), resubmit: true}
	parkBare(h, DeadLetter{ExchangeID: "ex-orphan", Partner: gone.ID, req: &orphan}, false)
	if ex, err := h.Resubmit(ctx, "ex-orphan"); !errors.Is(err, ErrUnknownPartner) || ex != nil {
		t.Fatalf("Resubmit for a departed partner = %v, %v; want ErrUnknownPartner and no exchange", ex, err)
	}

	// The drained hub refuses a rerun: its entry goes back on the queue
	// once, however often it is refused.
	req := Request{Kind: DocPO, PO: g.PO(tp1, seller), resubmit: true}
	parkBare(h, DeadLetter{ExchangeID: "ex-refused", Partner: tp1.ID, req: &req}, false)
	if _, err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	started = h.Status().Exchanges.Started
	for i := 0; i < 2; i++ {
		if _, err := h.Resubmit(ctx, "ex-refused"); !errors.Is(err, ErrHubStopped) {
			t.Fatalf("Resubmit on a drained hub = %v, want ErrHubStopped", err)
		}
	}
	var ids []string
	for _, dl := range h.DeadLetters() {
		ids = append(ids, dl.ExchangeID)
	}
	if want := []string{"ex-bare", "ex-orphan", "ex-refused"}; !slices.Equal(ids, want) {
		t.Fatalf("queue = %v, want %v", ids, want)
	}
	if n := h.Status().Exchanges.Started - started; n != 0 {
		t.Fatalf("refused reruns started %d exchanges", n)
	}
}

// TestTakeDeadLetterInPlace holds the queue's one exit to an in-place
// removal: taking entries in queue order, the order `resubmit all` walks,
// and settling each as a rerun that succeeded (which resolves it) removes
// it without allocating however long the queue is, and taking and settling
// one from the middle keeps the rest in order.
func TestTakeDeadLetterInPlace(t *testing.T) {
	h := newFig14Hub(t)
	const n = 4096
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("ex-%06d", i)
		parkBare(h, DeadLetter{ExchangeID: ids[i], req: &Request{Kind: DocPO}}, false)
	}
	settle := func(id string) {
		e, err := h.ledger.take(id)
		if err != nil {
			t.Fatal(err)
		}
		h.ledger.rerun(e, nil)
	}
	settle(ids[n/2])
	ids = slices.Delete(ids, n/2, n/2+1)
	var queued []string
	for _, dl := range h.DeadLetters() {
		queued = append(queued, dl.ExchangeID)
	}
	if !slices.Equal(queued, ids) || len(h.ledger.dead) != len(ids) {
		t.Fatalf("queue after settling ex-%06d from the middle = %d entries (%d in the set), want the other %d in order",
			n/2, len(queued), len(h.ledger.dead), len(ids))
	}
	next := 0
	allocs := testing.AllocsPerRun(n/2, func() {
		settle(ids[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("settling the head of a %d-entry queue allocates %.1f times, want 0", n, allocs)
	}
	if got, want := h.Status().DLQ.Depth, len(ids)-next; got != want || len(h.ledger.dead) != want {
		t.Fatalf("depth %d and %d entries in the set after %d settled takes, want %d", got, len(h.ledger.dead), next, want)
	}
}
