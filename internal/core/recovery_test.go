package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/journal"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// journaledHub builds a Figure 14 hub write-ahead-logging to path.
func journaledHub(t *testing.T, path string, opts ...HubOption) *Hub {
	t.Helper()
	return newFig14Hub(t, append([]HubOption{WithJournal(path), WithFsyncPolicy(journal.FsyncNever)}, opts...)...)
}

func TestRecoverWithoutJournal(t *testing.T) {
	h := newFig14Hub(t)
	if _, err := h.Recover(context.Background()); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("Recover on journal-less hub: %v, want ErrNoJournal", err)
	}
}

// An empty journal recovers to nothing, and Recover is idempotent: the
// second pass finds its snapshot already consumed.
func TestRecoverEmptyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	h := journaledHub(t, path)
	defer h.CloseJournal()
	rep, err := h.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, RecoveryReport{}) {
		t.Fatalf("empty journal recovered %+v", rep)
	}
	if rep2, err := h.Recover(context.Background()); err != nil || !reflect.DeepEqual(rep2, RecoveryReport{}) {
		t.Fatalf("second Recover: %+v, %v", rep2, err)
	}
}

// Completed exchanges come back as records after a restart: ExchangeByID
// resolves the original IDs, and new exchanges never reuse them.
func TestRecoverRestoresCompletedExchanges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ctx := context.Background()
	h1 := journaledHub(t, path)
	g := doc.NewGenerator(11)
	var ids []string
	for i := 0; i < 3; i++ {
		_, ex, err := roundTrip(h1, ctx, g.PO(tp1, seller))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ex.ID)
	}
	if err := h1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 3 || rep.Reenqueued != 0 || rep.DeadLetters != 0 {
		t.Fatalf("recovery report %+v, want 3 restored", rep)
	}
	for _, id := range ids {
		if _, ok := h2.ExchangeByID(id); !ok {
			t.Fatalf("exchange %s not restored", id)
		}
	}
	if snap := h2.Status().Recovery; snap.Recoveries != 1 || snap.Restored != 3 {
		t.Fatalf("recovery metrics %+v", snap)
	}
	// The restored sequence floor keeps new IDs collision-free.
	_, ex, err := roundTrip(h2, ctx, g.PO(tp1, seller))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if ex.ID == id {
			t.Fatalf("new exchange reused restored ID %s", id)
		}
	}
}

// A checkpoint-only journal (everything live was compacted away) recovers
// to nothing but still floors the sequence counters.
func TestRecoverCheckpointOnlyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ctx := context.Background()
	h1 := journaledHub(t, path)
	g := doc.NewGenerator(12)
	_, ex1, err := roundTrip(h1, ctx, g.PO(tp1, seller))
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.CheckpointJournal(); err != nil {
		t.Fatal(err)
	}
	if err := h1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 0 || rep.Reenqueued != 0 || rep.DeadLetters != 0 {
		t.Fatalf("checkpoint-only journal recovered %+v", rep)
	}
	_, ex2, err := roundTrip(h2, ctx, g.PO(tp1, seller))
	if err != nil {
		t.Fatal(err)
	}
	if ex2.ID == ex1.ID {
		t.Fatalf("exchange ID %s reused after checkpoint", ex1.ID)
	}
}

// A torn final record — the crash cut an append short — is truncated away;
// every record before it survives.
func TestRecoverTornFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ctx := context.Background()
	h1 := journaledHub(t, path)
	g := doc.NewGenerator(13)
	_, ex, err := roundTrip(h1, ctx, g.PO(tp1, seller))
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible frame header with only 3 of its payload bytes behind it.
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes == 0 {
		t.Fatal("torn tail not detected")
	}
	if rep.Restored != 1 {
		t.Fatalf("recovery report %+v, want 1 restored", rep)
	}
	if _, ok := h2.ExchangeByID(ex.ID); !ok {
		t.Fatalf("exchange %s lost to the torn tail", ex.ID)
	}
}

// A crash between writing the compaction rewrite and renaming it over the
// log leaves both files; the next open must serve the old (complete) log
// and discard the orphan rewrite.
func TestRecoverCrashDuringCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ctx := context.Background()
	h1 := journaledHub(t, path)
	g := doc.NewGenerator(14)
	_, ex, err := roundTrip(h1, ctx, g.PO(tp1, seller))
	if err != nil {
		t.Fatal(err)
	}
	h1.Journal().ArmCompactCrash()
	if err := h1.CheckpointJournal(); err != nil {
		t.Fatal(err)
	}
	if !h1.Journal().Crashed() {
		t.Fatal("compaction crash point did not fire")
	}
	if _, err := os.Stat(path + ".compact"); err != nil {
		t.Fatalf("simulated crash left no orphan rewrite: %v", err)
	}

	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("orphan rewrite not discarded: %v", err)
	}
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 {
		t.Fatalf("recovery report %+v, want 1 restored from the pre-compaction log", rep)
	}
	if _, ok := h2.ExchangeByID(ex.ID); !ok {
		t.Fatalf("exchange %s lost with the aborted compaction", ex.ID)
	}
}

// An admission whose completion the crash swallowed is re-run exactly once.
// The restarted hub has fresh backends here, so the replay completes.
func TestRecoverReplaysPendingAdmission(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ctx := context.Background()
	h1 := journaledHub(t, path)
	// Freeze the journal just before the completion record: the admission
	// is durable, the outcome is not — the classic crash window.
	h1.Journal().Arm(journal.CrashPoint{
		Match:  func(r journal.Record) bool { return r.Kind == "complete" },
		Before: true,
	})
	g := doc.NewGenerator(15)
	po := g.PO(tp1, seller)
	if _, _, err := roundTrip(h1, ctx, po); err != nil {
		t.Fatal(err)
	}
	if !h1.Journal().Crashed() {
		t.Fatal("crash point did not fire")
	}
	// h1 is abandoned without closing, as a crash would leave it.

	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reenqueued != 1 || rep.Recovered != 1 || rep.Redelivered != 0 {
		t.Fatalf("recovery report %+v, want 1 reenqueued and recovered", rep)
	}
	sys := h2.Systems["SAP"]
	if n := sys.StoredOrders(); n != 1 {
		t.Fatalf("backend stored %d orders after replay, want 1", n)
	}
	// The replay completed durably: a third incarnation finds nothing
	// pending and one finished exchange.
	if err := h2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	h3 := journaledHub(t, path)
	defer h3.CloseJournal()
	rep3, err := h3.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Reenqueued != 0 || rep3.Restored != 1 {
		t.Fatalf("third incarnation recovered %+v, want only 1 restored", rep3)
	}
}

// Dead letters survive the restart: restored entries are replayable via
// Resubmit, and a successful replay resolves them in the journal for good.
func TestRecoverRestoresDeadLetters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ctx := context.Background()
	h1 := journaledHub(t, path)
	h1.WrapBackends(func(sys backend.System) backend.System {
		return backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 1, Seed: 5})
	})
	h1.SetDefaultRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	g := doc.NewGenerator(16)
	po := g.PO(tp1, seller)
	_, ex, err := roundTrip(h1, ctx, po)
	if err == nil {
		t.Fatal("round trip succeeded against an always-failing backend")
	}
	if err := h1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	h2 := journaledHub(t, path) // healthy backends: the fault "healed"
	defer h2.CloseJournal()
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadLetters != 1 {
		t.Fatalf("recovery report %+v, want 1 dead letter", rep)
	}
	dls := h2.DeadLetters()
	if len(dls) != 1 || dls[0].ExchangeID != ex.ID {
		t.Fatalf("restored dead letters %+v, want original %s", dls, ex.ID)
	}
	for _, dl := range h2.DeadLetters() {
		if _, err := h2.Resubmit(ctx, dl.ExchangeID); err != nil {
			t.Fatalf("resubmit restored dead letter: %v", err)
		}
	}
	if n := h2.Systems["SAP"].StoredOrders(); n != 1 {
		t.Fatalf("backend stored %d orders, want 1", n)
	}
	if err := h2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// Resolved for good: the third incarnation restores no dead letters.
	h3 := journaledHub(t, path)
	defer h3.CloseJournal()
	rep3, err := h3.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.DeadLetters != 0 {
		t.Fatalf("third incarnation restored %d dead letters, want 0", rep3.DeadLetters)
	}
}

// Duplicate admission records (a crashed compaction replayed over an
// append, a buggy writer) must not double-run: replay is keyed by
// admission key.
func TestRecoverIgnoresDuplicateAdmits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ctx := context.Background()
	admit := admitRecords(t, "j-00000001", Request{Kind: DocPO, PO: doc.NewGenerator(17).PO(tp1, seller)}, 0)
	writeJournal(t, path, append(admit, admit...))

	h := journaledHub(t, path)
	defer h.CloseJournal()
	rep, err := h.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicateAdmits != 1 || rep.Reenqueued != 1 || rep.Recovered != 1 {
		t.Fatalf("recovery report %+v, want 1 duplicate ignored and 1 replay", rep)
	}
	if n := h.Systems["SAP"].StoredOrders(); n != 1 {
		t.Fatalf("backend stored %d orders, want 1 (duplicate admit ran)", n)
	}
}

// The bounded dead-letter queue: with a journal, the oldest journaled
// entry spills to journal-only retention and a later Recover restores it;
// without one, the incoming entry is rejected. Both surface as dlq-evict
// events in HealthMetrics.
func TestDLQCapSpillsOldestToJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ctx := context.Background()
	h1 := journaledHub(t, path, WithDLQCap(2))
	h1.WrapBackends(func(sys backend.System) backend.System {
		return backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 1, Seed: 6})
	})
	h1.SetDefaultRetryPolicy(RetryPolicy{MaxAttempts: 1})
	g := doc.NewGenerator(18)
	var exIDs []string
	for i := 0; i < 3; i++ {
		_, ex, err := roundTrip(h1, ctx, g.PO(tp1, seller))
		if err == nil {
			t.Fatal("round trip succeeded against an always-failing backend")
		}
		exIDs = append(exIDs, ex.ID)
	}
	dls := h1.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("in-memory queue holds %d entries, want cap 2", len(dls))
	}
	if dls[0].ExchangeID != exIDs[1] || dls[1].ExchangeID != exIDs[2] {
		t.Fatalf("queue %v, want the two newest entries", dls)
	}
	var evicted int64
	for _, s := range h1.Status().Partners {
		evicted += s.DLQEvicted
	}
	if evicted != 1 {
		t.Fatalf("dlq_evicted = %d, want 1", evicted)
	}
	if err := h1.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// The spilled entry survived in the journal.
	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadLetters != 3 {
		t.Fatalf("recovered %d dead letters, want all 3 (spilled one included)", rep.DeadLetters)
	}
	if err := h2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// Restored dead letters respect the cap too: reopened under it, the
	// oldest journaled entry spills again instead of overfilling the queue.
	h3 := journaledHub(t, path, WithDLQCap(2))
	defer h3.CloseJournal()
	rep, err = h3.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadLetters != 3 {
		t.Fatalf("recovered %d dead letters under the cap, want all 3", rep.DeadLetters)
	}
	st := h3.Status()
	if st.DLQ.Depth != 2 || st.DLQ.Cap != 2 {
		t.Fatalf("dlq %+v, want depth 2 at cap 2", st.DLQ)
	}
	evicted = 0
	for _, s := range st.Partners {
		evicted += s.DLQEvicted
	}
	if evicted != 1 {
		t.Fatalf("dlq_evicted after capped recovery = %d, want 1", evicted)
	}
	if dls := h3.DeadLetters(); dls[0].ExchangeID != exIDs[1] || dls[1].ExchangeID != exIDs[2] {
		t.Fatalf("queue %v, want the two newest entries", dls)
	}
}

func TestDLQCapRejectsWithoutJournal(t *testing.T) {
	ctx := context.Background()
	h := newFig14Hub(t, WithDLQCap(2))
	h.WrapBackends(func(sys backend.System) backend.System {
		return backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 1, Seed: 7})
	})
	h.SetDefaultRetryPolicy(RetryPolicy{MaxAttempts: 1})
	g := doc.NewGenerator(19)
	var exIDs []string
	for i := 0; i < 3; i++ {
		_, ex, err := roundTrip(h, ctx, g.PO(tp1, seller))
		if err == nil {
			t.Fatal("round trip succeeded against an always-failing backend")
		}
		exIDs = append(exIDs, ex.ID)
	}
	dls := h.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("in-memory queue holds %d entries, want cap 2", len(dls))
	}
	// Without a journal nothing may be silently dropped from the queue:
	// the oldest entries stay, the incoming one is rejected.
	if dls[0].ExchangeID != exIDs[0] || dls[1].ExchangeID != exIDs[1] {
		t.Fatalf("queue %v, want the two oldest entries", dls)
	}
	var evicted int64
	for _, s := range h.Status().Partners {
		evicted += s.DLQEvicted
	}
	if evicted != 1 {
		t.Fatalf("dlq_evicted = %d, want 1", evicted)
	}
}

// writeJournal writes recs to a fresh journal at path.
func writeJournal(t *testing.T, path string, recs []journal.Record) {
	t.Helper()
	j, err := journal.Open(path, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// admitRecords renders one journaled admission plus attempts replay-attempt
// records, as a crashed recovery leaves them behind.
func admitRecords(t *testing.T, key string, req Request, attempts int) []journal.Record {
	t.Helper()
	payload, err := json.Marshal(toJournalRequest(&req))
	if err != nil {
		t.Fatal(err)
	}
	recs := []journal.Record{{Kind: recAdmit, Key: key, Payload: payload}}
	for i := 0; i < attempts; i++ {
		recs = append(recs, journal.Record{Kind: recReplay, Key: key})
	}
	return recs
}

// outcomeRecord renders the complete record of an admission.
func outcomeRecord(t *testing.T, key string, out journalOutcome) journal.Record {
	t.Helper()
	payload, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return journal.Record{Kind: recComplete, Key: key, Payload: payload}
}

// TestReplayParity: one journal replays the same way whether it is the
// hub's own (Recover) or a dead peer's (TakeOverJournal). It holds a
// completed exchange, an unresolved dead letter, a pending DocPO, and two
// admissions at the poison threshold — one a wire PO with no partner hint,
// whose partner is unknown until decode. Both paths report the same
// counts, and every dead letter, poisoned ones included, has an exchange
// record and counts as dead-lettered and poisoned.
func TestReplayParity(t *testing.T) {
	ctx := context.Background()
	g := doc.NewGenerator(31)
	wire := wirePO(t, newFig14Hub(t), formats.EDI, g.PO(tp1, seller))
	deadPO := g.PO(tp1, seller)
	var recs []journal.Record
	recs = append(recs, admitRecords(t, "j-00000001", Request{Kind: DocPO, PO: g.PO(tp1, seller)}, 0)...)
	recs = append(recs, outcomeRecord(t, "j-00000001", journalOutcome{
		ExchangeID: "ex-000001", Partner: tp1.ID, Flow: obs.FlowPO, Protocol: formats.EDI, Outcome: outcomeCompleted,
	}))
	recs = append(recs, admitRecords(t, "j-00000002", Request{Kind: DocPO, PO: deadPO}, 0)...)
	recs = append(recs, outcomeRecord(t, "j-00000002", journalOutcome{
		ExchangeID: "ex-000002", Partner: tp1.ID, Flow: obs.FlowPO, Protocol: formats.EDI,
		Outcome: outcomeDeadLetter, Reason: "backend down",
		Request: toJournalRequest(&Request{Kind: DocPO, PO: deadPO}),
	}))
	recs = append(recs, admitRecords(t, "j-00000003", Request{Kind: DocPO, PO: g.PO(tp1, seller)}, 1)...)
	recs = append(recs, admitRecords(t, "j-00000004", Request{Kind: DocPO, PO: g.PO(tp1, seller)}, poisonThreshold)...)
	recs = append(recs, admitRecords(t, "j-00000005", Request{Kind: DocWirePO, Protocol: formats.EDI, Wire: wire}, poisonThreshold)...)
	dir := t.TempDir()
	own := filepath.Join(dir, "own.wal")
	peer := filepath.Join(dir, "peer.wal")
	writeJournal(t, own, recs)
	writeJournal(t, peer, recs)

	want := RecoveryReport{
		Records: len(recs), Restored: 1, DeadLetters: 1,
		Reenqueued: 1, Recovered: 1, Redelivered: 0, Poisoned: 2,
	}
	for _, tc := range []struct {
		name   string
		replay func() (*Hub, RecoveryReport, error)
	}{
		{"recover", func() (*Hub, RecoveryReport, error) {
			h := journaledHub(t, own)
			rep, err := h.Recover(ctx)
			return h, rep, err
		}},
		{"takeover", func() (*Hub, RecoveryReport, error) {
			h := journaledHub(t, filepath.Join(dir, "successor.wal"), WithExchangeIDBase(1_000_000))
			rep, err := h.TakeOverJournal(ctx, peer, nil)
			return h, rep, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, rep, err := tc.replay()
			defer h.CloseJournal()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("report %+v, want %+v", rep, want)
			}
			dls := h.DeadLetters()
			if len(dls) != 3 {
				t.Fatalf("dead-letter queue holds %d entries, want 3", len(dls))
			}
			for _, dl := range dls {
				if _, ok := h.ExchangeByID(dl.ExchangeID); !ok {
					t.Errorf("dead letter %s (partner %q) has no exchange record", dl.ExchangeID, dl.Partner)
				}
				if journaled := journaledEntry(h, dl.ExchangeID); !journaled || dl.req == nil {
					t.Errorf("dead letter %s: journaled=%v, request retained=%v; want both", dl.ExchangeID, journaled, dl.req != nil)
				}
			}
			st := h.Status()
			if st.Exchanges.DeadLettered != 2 {
				t.Errorf("exchanges dead-lettered = %d, want the 2 poisoned admissions", st.Exchanges.DeadLettered)
			}
			if st.Durability.Poisoned != 2 {
				t.Errorf("durability poisoned = %d, want 2", st.Durability.Poisoned)
			}
			if st.Journal.PendingAdmits != 0 || st.Journal.UnresolvedDeadLetters != 3 {
				t.Errorf("journal %+v, want nothing pending and 3 unresolved dead letters", st.Journal)
			}
		})
	}
}

// A takeover onto a successor whose journal refuses appends (fail-stop,
// write errors) cannot admit the dead peer's unfinished work, but the peer
// already acknowledged it: each entry is parked in memory, where it stays
// replayable, and the report, the queue and the recovery gauges agree.
// New work is still refused.
func TestTakeoverOntoFailingJournalParksInMemory(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx := context.Background()
	g := doc.NewGenerator(32)
	peer := filepath.Join(t.TempDir(), "peer.wal")
	var recs []journal.Record
	recs = append(recs, admitRecords(t, "j-00000001", Request{Kind: DocPO, PO: g.PO(tp1, seller)}, 0)...)
	recs = append(recs, admitRecords(t, "j-00000002", Request{Kind: DocPO, PO: g.PO(tp1, seller)}, 0)...)
	writeJournal(t, peer, recs)

	h, ffs := faultyJournaledHub(t, 32, WithExchangeIDBase(1_000_000))
	defer h.CloseJournal()
	ffs.Arm(journal.FaultWriteErr)
	rep, err := h.TakeOverJournal(ctx, peer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reenqueued != 2 || rep.Redelivered != 2 || rep.Recovered != 0 {
		t.Fatalf("report %+v, want 2 reenqueued and redelivered", rep)
	}
	dls := h.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("dead-letter queue holds %d entries, want the 2 unadmittable admissions", len(dls))
	}
	for _, dl := range dls {
		if journaledEntry(h, dl.ExchangeID) || dl.req == nil {
			t.Fatalf("dead letter %+v, want an in-memory entry retaining its request", dl)
		}
		if !errors.Is(dl.Reason, ErrJournalUnavailable) {
			t.Fatalf("dead letter reason %v, want the journal refusal", dl.Reason)
		}
	}
	if n := h.Systems["SAP"].StoredOrders(); n != 0 {
		t.Fatalf("backend stored %d orders, want 0 (nothing ran)", n)
	}
	if rm := h.Status().Recovery; rm.Replayed != 2 || rm.Redelivered != 2 {
		t.Fatalf("recovery gauges %+v, want 2 replayed and redelivered", rm)
	}
	if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); !errors.Is(err, ErrJournalUnavailable) {
		t.Fatalf("new work on a fail-stop hub with a failing disk: %v, want ErrJournalUnavailable", err)
	}

	// Once the disk heals, the parked work resubmits exactly once.
	ffs.Heal()
	for _, dl := range h.DeadLetters() {
		if _, err := h.Resubmit(ctx, dl.ExchangeID); err != nil {
			t.Fatalf("resubmit parked takeover entry: %v", err)
		}
	}
	if n := h.Systems["SAP"].StoredOrders(); n != 2 {
		t.Fatalf("backend stored %d orders after resubmission, want 2", n)
	}
}
