package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/doc"
	"repro/internal/journal"
	"repro/internal/obs"
)

// wrapFaulty wraps every back end of h in a healthy Faulty decorator and
// returns the wrappers by name; a test breaks and heals them with
// SetSchedule.
func wrapFaulty(h *Hub) map[string]*backend.Faulty {
	wrapped := map[string]*backend.Faulty{}
	h.WrapBackends(func(sys backend.System) backend.System {
		f := backend.NewFaulty(sys, backend.FaultSchedule{})
		wrapped[f.Name()] = f
		return f
	})
	return wrapped
}

// checkLedger holds a quiescent hub's ledger to its invariants:
//
//   - on a drained hub nothing is running;
//   - Status()'s DLQ depth, pending admissions and unresolved dead letters
//     equal the ledger's counts, and those an independent walk;
//   - the dead-letter set lists each entry once, indexed by ID: on the queue
//     while queued or taken, and among the spilled entries, with its record
//     and without its request, while spilled; every queued entry with an
//     exchange record is a parked exchange;
//   - the retention window holds at most RetentionWindow exchanges, each
//     once, filed in the table under its ID, finished and off the
//     dead-letter set; the table holds no other exchange that is not
//     running or parked on the set, and every instance in the engine's
//     store belongs to an exchange the table holds;
//   - the collector holds a trace, with its events, for exactly the
//     exchanges in the table;
//   - on a journaled hub, the journal file holds exactly the ledger's
//     pending admissions (none whose terminal record it holds, none lost),
//     and every unresolved dead-letter record in it is queued, taken or
//     spilled (skipped while the journal is frozen by a crash point or
//     degraded, when the file lags the index, and once a later hub opened
//     the file).
//
// newHub runs it after the drain of every core test hub.
func checkLedger(t testing.TB, h *Hub, drained bool) {
	t.Helper()
	st := h.Status()
	l := h.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, a := range l.pending {
		if a.key != key {
			t.Errorf("ledger: admission %s filed under %s", a.key, key)
		}
	}
	if drained {
		for id, ex := range l.exchanges {
			if ex.state == exRunning {
				t.Errorf("ledger: drained hub still runs exchange %s", id)
			}
		}
	}
	seen := map[string]bool{}
	queued, unresolved := 0, 0
	walk := func(list []*deadEntry, spilled bool) {
		for _, e := range list {
			id := e.dl.ExchangeID
			switch {
			case seen[id]:
				t.Errorf("ledger: dead letter %s is listed twice", id)
			case l.byID[id] != e:
				t.Errorf("ledger: dead letter %s is not indexed", id)
			case e.state == dlOut, spilled != (e.state == dlSpilled):
				t.Errorf("ledger: dead letter %s in state %d is on the wrong list", id, e.state)
			case spilled && (e.rec == nil || e.dl.req != nil):
				t.Errorf("ledger: spilled dead letter %s has no record or keeps its request", id)
			}
			seen[id] = true
			if e.state == dlQueued {
				queued++
				if ex, ok := l.exchanges[id]; ok && ex.state != exParked {
					t.Errorf("ledger: queued dead letter %s belongs to an exchange in state %d", id, ex.state)
				}
			}
			if e.rec != nil {
				unresolved++
			}
		}
	}
	walk(l.dead, false)
	walk(l.spilled, true)
	if len(l.byID) != len(seen) {
		t.Errorf("ledger: the dead-letter set holds %d entries, its index %d", len(seen), len(l.byID))
	}
	checkWindow(t, h)
	checkTraces(t, h)
	if l.queued != queued || l.unresolved != unresolved {
		t.Errorf("ledger: counts %d queued and %d unresolved, the set holds %d and %d", l.queued, l.unresolved, queued, unresolved)
	}
	if st.DLQ.Depth != queued {
		t.Errorf("ledger: Status DLQ depth %d, queue holds %d", st.DLQ.Depth, queued)
	}
	if h.jrn == nil {
		return
	}
	if st.Journal.PendingAdmits != len(l.pending) || st.Journal.UnresolvedDeadLetters != unresolved {
		t.Errorf("ledger: Status journal %+v, ledger holds %d pending admissions and %d unresolved dead letters",
			st.Journal, len(l.pending), unresolved)
	}
	if owner, _ := journalOwners.Load(h.jrn.Path()); owner != h || h.jrn.Crashed() || h.dur.down() {
		return
	}
	data, err := os.ReadFile(h.jrn.Path())
	if err != nil {
		return // the test's directory is gone
	}
	recs, _, _ := journal.ScanAll(data)
	snap, _, _ := scanJournal(recs)
	var filed, held []string
	for _, a := range snap.pending {
		filed = append(filed, a.key)
	}
	for key := range l.pending {
		held = append(held, key)
	}
	slices.Sort(filed)
	slices.Sort(held)
	if !slices.Equal(filed, held) {
		t.Errorf("ledger: the journal holds admissions %v pending, the ledger %v", filed, held)
	}
	for _, out := range snap.dead {
		if e := l.byID[out.ExchangeID]; e == nil || e.rec == nil {
			t.Errorf("ledger: the journal holds an unresolved dead letter %s that is neither queued, taken nor spilled", out.ExchangeID)
		}
	}
}

// checkWindow holds the retention window to its invariants (see
// checkLedger); the caller holds the ledger's lock.
func checkWindow(t testing.TB, h *Hub) {
	t.Helper()
	l := h.ledger
	if len(l.done) > RetentionWindow {
		t.Errorf("ledger: the retention window holds %d exchanges, more than %d", len(l.done), RetentionWindow)
	}
	retained := map[string]bool{}
	for _, ex := range l.done {
		switch {
		case retained[ex.ID]:
			t.Errorf("ledger: exchange %s is retained twice", ex.ID)
		case l.exchanges[ex.ID] != ex:
			t.Errorf("ledger: retained exchange %s is not in the table", ex.ID)
		case ex.state == exRunning:
			t.Errorf("ledger: retained exchange %s is still running", ex.ID)
		case l.byID[ex.ID] != nil:
			t.Errorf("ledger: retained exchange %s is parked on the dead-letter set", ex.ID)
		}
		retained[ex.ID] = true
	}
	for id, ex := range l.exchanges {
		if !retained[id] && ex.state != exRunning && (ex.state != exParked || l.byID[id] == nil) {
			t.Errorf("ledger: the table keeps exchange %s in state %d, neither retained nor running nor parked", id, ex.state)
		}
	}
	ids, err := h.Engine.Store().ListInstances()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		in, err := h.Engine.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		if exID, _ := in.Data["exchange"].(string); l.exchanges[exID] == nil {
			t.Errorf("ledger: instance %s belongs to exchange %q, which the table does not hold", id, exID)
		}
	}
}

// checkTraces holds the collector to the table (see checkLedger); the
// caller holds the ledger's lock.
func checkTraces(t testing.TB, h *Hub) {
	t.Helper()
	l := h.ledger
	if n := h.collector.Exchanges(); n != len(l.exchanges) {
		t.Errorf("ledger: the collector holds %d traces, the table %d records", n, len(l.exchanges))
	}
	for id := range l.exchanges {
		if h.collector.Events(id) == nil {
			t.Errorf("ledger: exchange %s in the table has no trace", id)
		}
	}
}

// TestSeqIDMatchesSprintf pins exchange IDs and admission keys to the
// fmt.Sprintf formats they were written with, inside their padding and
// past it.
func TestSeqIDMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 999999, 1000000, 2000001, 99999999, 100000000} {
		if got, want := seqID("ex-", 6, n), fmt.Sprintf("ex-%06d", n); got != want {
			t.Errorf("exchange ID %d: %q, want %q", n, got, want)
		}
		if got, want := seqID("j-", 8, n), fmt.Sprintf("j-%08d", n); got != want {
			t.Errorf("admission key %d: %q, want %q", n, got, want)
		}
	}
}

// journalOwners maps a journal path to the test hub that opened it last;
// newHub records it and lets go of it once the hub's checks have run.
var journalOwners sync.Map

// parkBare queues a dead letter with no exchange behind it, through the
// ledger's cap; record marks it as one the journal holds.
func parkBare(h *Hub, dl DeadLetter, record bool) {
	e := &deadEntry{dl: dl}
	if record {
		e.rec = &journalOutcome{ExchangeID: dl.ExchangeID, Partner: dl.Partner, Outcome: outcomeDeadLetter}
	}
	h.ledger.mu.Lock()
	evs, gone := h.ledger.enqueue(e)
	h.ledger.mu.Unlock()
	h.emit(evs)
	h.forget(aged{gone})
}

// journaledEntry reports whether the journal holds an unresolved
// dead-letter record of the entry id.
func journaledEntry(h *Hub, id string) bool {
	h.ledger.mu.Lock()
	defer h.ledger.mu.Unlock()
	e := h.ledger.byID[id]
	return e != nil && e.rec != nil
}

// fileRecords reads the records of the journal file at path.
func fileRecords(t *testing.T, path string) []journal.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, regions, torn := journal.ScanAll(data)
	if len(regions) != 0 || torn != 0 {
		t.Fatalf("journal %s: %d corrupt regions, %d torn bytes", path, len(regions), torn)
	}
	return recs
}

// TestJournalGolden pins the bytes a hub journals. A scripted sequential run
// writes every record kind and outcome: a recovery replay attempt and its
// completion, a completed and a failed (unknown partner) admission, two
// dead letters, a rerun that dead-letters again, a rerun that resolves, a
// change and an admission the drained hub aborts. The golden holds that
// record stream and then the journal a checkpoint compacts it to.
func TestJournalGolden(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "hub.wal")
	g := doc.NewGenerator(41)
	// The admission a crash left pending: Recover replays it.
	writeJournal(t, path, admitRecords(t, "j-00000001", Request{Kind: DocPO, PO: g.PO(tp1, seller)}, 0))

	h := journaledHub(t, path)
	defer h.CloseJournal()
	sap := wrapFaulty(h)["SAP"]
	if rep, err := h.Recover(ctx); err != nil || rep.Recovered != 1 {
		t.Fatalf("recover: %+v, %v", rep, err)
	}
	if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err != nil {
		t.Fatal(err)
	}
	stranger := doc.Party{ID: "TP-NONE", Name: "Unknown Buyer"}
	if _, _, err := roundTrip(h, ctx, g.PO(stranger, seller)); !errors.Is(err, ErrUnknownPartner) {
		t.Fatalf("unknown partner: %v", err)
	}
	sap.SetSchedule(backend.FaultSchedule{ErrProb: 1})
	_, resolved, err := roundTrip(h, ctx, g.PO(tp1, seller))
	if err == nil {
		t.Fatal("round trip against a down back end succeeded")
	}
	_, reparked, err := roundTrip(h, ctx, g.PO(tp1, seller))
	if err == nil {
		t.Fatal("round trip against a down back end succeeded")
	}
	if _, err := h.Resubmit(ctx, reparked.ID); err == nil {
		t.Fatal("rerun against a down back end succeeded")
	}
	sap.SetSchedule(backend.FaultSchedule{})
	if _, err := h.Resubmit(ctx, resolved.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Apply(ChangeThreshold{PartnerID: tp1.ID, Threshold: 60000}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)}); !errors.Is(err, ErrHubStopped) {
		t.Fatalf("DoAsync after Drain: %v", err)
	}

	var buf bytes.Buffer
	render := func(title string, recs []journal.Record) {
		fmt.Fprintf(&buf, "# %s\n", title)
		for _, r := range recs {
			fmt.Fprintf(&buf, "%s %q %s\n", r.Kind, r.Key, r.Payload)
		}
	}
	render("appended", fileRecords(t, path))
	if err := h.CheckpointJournal(); err != nil {
		t.Fatal(err)
	}
	render("checkpointed", fileRecords(t, path))

	golden := filepath.Join("testdata", "journal_records.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var a, b string
		if i < len(got) {
			a = got[i]
		}
		if i < len(exp) {
			b = exp[i]
		}
		if a != b {
			t.Fatalf("%s:%d differs\n got: %q\nwant: %q", golden, i+1, a, b)
		}
	}
}

// TestCheckpointKeepsQueueAndReplayOrder: a checkpoint writes the pending
// admissions in key order and the dead letters in the order they were
// parked, so a restart replays and restores them in the order the crashed
// hub held them. Twelve of each, because a small map often iterates in
// insertion order by chance.
func TestCheckpointKeepsQueueAndReplayOrder(t *testing.T) {
	const n = 12
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "hub.wal")
	g := doc.NewGenerator(43)
	var recs []journal.Record
	var keys []string
	for i := 1; i <= n; i++ {
		key := fmt.Sprintf("j-%08d", i)
		keys = append(keys, key)
		recs = append(recs, admitRecords(t, key, Request{Kind: DocPO, PO: g.PO(tp1, seller)}, 0)...)
	}
	writeJournal(t, path, recs)

	h := journaledHub(t, path)
	wrapFaulty(h)["SAP"].SetSchedule(backend.FaultSchedule{ErrProb: 1})
	var parked []string
	for i := 0; i < n; i++ {
		_, ex, err := roundTrip(h, ctx, g.PO(tp1, seller))
		if err == nil {
			t.Fatal("round trip against a down back end succeeded")
		}
		parked = append(parked, ex.ID)
	}
	if err := h.CheckpointJournal(); err != nil {
		t.Fatal(err)
	}
	var admitted []string
	for _, r := range fileRecords(t, path) {
		if r.Kind == recAdmit {
			admitted = append(admitted, r.Key)
		}
	}
	if !slices.Equal(admitted, keys) {
		t.Errorf("checkpoint wrote admissions %v, want key order %v", admitted, keys)
	}
	if err := h.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	if _, err := h2.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	var restored []string
	for _, dl := range h2.DeadLetters() {
		restored = append(restored, dl.ExchangeID)
	}
	if !slices.Equal(restored, parked) {
		t.Fatalf("restart restored the queue as %v, want %v", restored, parked)
	}
}

// TestDLQCapSpillLeavesTheQueue: the entries a cap spills leave the queue
// for a list of their own and let go of their requests, so the queue a
// park at the cap walks stays at the cap however many have spilled; a
// checkpoint writes the spilled entries first, and a restart under the
// same cap queues again what the hub queued.
func TestDLQCapSpillLeavesTheQueue(t *testing.T) {
	const capN, n = 4, 40
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "hub.wal")
	h := journaledHub(t, path, WithDLQCap(capN))
	wrapFaulty(h)["SAP"].SetSchedule(backend.FaultSchedule{ErrProb: 1})
	h.SetDefaultRetryPolicy(RetryPolicy{MaxAttempts: 1})
	g := doc.NewGenerator(45)
	for i := 0; i < n; i++ {
		if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err == nil {
			t.Fatal("round trip against a down back end succeeded")
		}
	}
	h.ledger.mu.Lock()
	onQueue, spilled := len(h.ledger.dead), len(h.ledger.spilled)
	h.ledger.mu.Unlock()
	if onQueue != capN || spilled != n-capN {
		t.Fatalf("%d entries on the queue and %d spilled, want %d and %d", onQueue, spilled, capN, n-capN)
	}
	var queued []string
	for _, dl := range h.DeadLetters() {
		queued = append(queued, dl.ExchangeID)
	}
	if err := h.CheckpointJournal(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, h, false) // while the file is still this hub's
	if err := h.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	h2 := journaledHub(t, path, WithDLQCap(capN))
	defer h2.CloseJournal()
	if rep, err := h2.Recover(ctx); err != nil || rep.DeadLetters != n {
		t.Fatalf("recover: %+v, %v; want %d dead letters", rep, err, n)
	}
	var restored []string
	for _, dl := range h2.DeadLetters() {
		restored = append(restored, dl.ExchangeID)
	}
	if !slices.Equal(restored, queued) {
		t.Fatalf("restart under the cap queued %v, want %v", restored, queued)
	}
}

// TestDeadLetterJournaledBeforeVisible: a dead letter's record is in the
// journal before the entry can be taken off the queue. A bus sink holds the
// exchange that parks it at its dead-letter event while the test heals the
// back end and resubmits the entry; once the sink lets go, nothing may bring
// the resolved entry back, in memory or after a restart. The second case
// parks through a rerun that fails again.
func TestDeadLetterJournaledBeforeVisible(t *testing.T) {
	for _, rerun := range []bool{false, true} {
		name := "park"
		if rerun {
			name = "rerun-reparks"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			path := filepath.Join(t.TempDir(), "hub.wal")
			h := journaledHub(t, path)
			sap := wrapFaulty(h)["SAP"]
			sap.SetSchedule(backend.FaultSchedule{ErrProb: 1})
			g := doc.NewGenerator(44)

			var first string
			if rerun {
				_, ex, err := roundTrip(h, ctx, g.PO(tp1, seller))
				if err == nil {
					t.Fatal("round trip against a down back end succeeded")
				}
				first = ex.ID
			}
			var armed atomic.Bool
			held, release := make(chan string), make(chan struct{})
			h.Bus().Attach(obs.FuncSink(func(e obs.Event) {
				if e.Kind == obs.KindExchange && e.Step == obs.StepDeadLetter && armed.CompareAndSwap(true, false) {
					held <- e.ExchangeID
					<-release
				}
			}))
			armed.Store(true)
			done := make(chan error, 1)
			go func() {
				var err error
				if rerun {
					_, err = h.Resubmit(ctx, first)
				} else {
					_, _, err = roundTrip(h, ctx, g.PO(tp1, seller))
				}
				done <- err
			}()
			parked := <-held
			sap.SetSchedule(backend.FaultSchedule{})
			if _, err := h.Resubmit(ctx, parked); err != nil {
				t.Fatalf("resubmit %s while its exchange is held: %v", parked, err)
			}
			close(release)
			if err := <-done; err == nil {
				t.Fatal("held exchange did not fail")
			}

			st := h.Status()
			if st.DLQ.Depth != 0 || st.Journal.UnresolvedDeadLetters != 0 {
				t.Fatalf("after the rerun resolved %s: DLQ depth %d, unresolved dead letters %d; want 0 and 0",
					parked, st.DLQ.Depth, st.Journal.UnresolvedDeadLetters)
			}
			if err := h.CloseJournal(); err != nil {
				t.Fatal(err)
			}
			h2 := journaledHub(t, path)
			defer h2.CloseJournal()
			rep, err := h2.Recover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep.DeadLetters != 0 || len(h2.DeadLetters()) != 0 {
				t.Fatalf("restart restored %d dead letters (%v), want none", rep.DeadLetters, h2.DeadLetters())
			}
		})
	}
}

// TestLedgerCrashSweep crashes a journaled hub before and after each of
// its journal appends in turn, while it runs three exchanges: a TP1 order
// completes, a TP2 order dead-letters while its back end is down, and the
// dead letter is rerun to success once it heals. A second hub recovers the
// same journal on the same back ends and reruns whatever it restores to
// its queue. Every hub must pass checkLedger, each order is stored at most
// once, and each order the doomed hub acknowledged exactly once.
func TestLedgerCrashSweep(t *testing.T) {
	for k := 0; ; k++ {
		fired := false
		for _, before := range []bool{true, false} {
			name := fmt.Sprintf("append-%d-after", k)
			if before {
				name = fmt.Sprintf("append-%d-before", k)
			}
			t.Run(name, func(t *testing.T) {
				if crashAndRecover(t, k, before) {
					fired = true
				}
			})
		}
		if !fired {
			if k < 5 {
				t.Fatalf("the scenario made %d journal appends, want at least 5", k)
			}
			return
		}
	}
}

// crashAndRecover runs one point of TestLedgerCrashSweep and reports
// whether its crash point fired.
func crashAndRecover(t *testing.T, k int, before bool) bool {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "hub.wal")
	g := doc.NewGenerator(45)
	orders := map[string]*doc.PurchaseOrder{"SAP": g.PO(tp1, seller), "Oracle": g.PO(tp2, seller)}
	acked := map[string]bool{}

	h1 := journaledHub(t, path)
	backends := wrapFaulty(h1)
	h1.Journal().Arm(journal.CrashPoint{Skip: k, Before: before})
	if _, _, err := roundTrip(h1, ctx, orders["SAP"]); err == nil {
		acked["SAP"] = true
	}
	backends["Oracle"].SetSchedule(backend.FaultSchedule{ErrProb: 1})
	_, parked, err := roundTrip(h1, ctx, orders["Oracle"])
	if err == nil {
		t.Fatal("round trip against a down back end succeeded")
	}
	backends["Oracle"].SetSchedule(backend.FaultSchedule{})
	if _, err := h1.Resubmit(ctx, parked.ID); err == nil {
		acked["Oracle"] = true
	}
	fired := h1.Journal().Crashed()
	// h1 is abandoned with its journal unclosed, as a crash leaves it.

	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	h2.WrapBackends(func(sys backend.System) backend.System { return backends[sys.Name()] })
	if _, err := h2.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, h2, false)
	for _, dl := range h2.DeadLetters() {
		// A rerun of an order the doomed hub completed finds its
		// acknowledgment consumed and parks again; either way it must not
		// store the order twice.
		_, _ = h2.Resubmit(ctx, dl.ExchangeID)
	}
	checkLedger(t, h2, false)
	for name, f := range backends {
		n := f.Inner().StoredOrders()
		if n > 1 || (acked[name] && n != 1) {
			t.Errorf("%s stores %s %d times (acknowledged: %v)", name, orders[name].ID, n, acked[name])
		}
	}
	return fired
}
