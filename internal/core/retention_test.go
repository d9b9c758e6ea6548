package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/doc"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/wf"
)

// checkVisible reports whether ex is visible through ExchangeByID,
// StageVersions and PrivateInstance (record) and through Trace and Events
// (traced), as want and wantTraced say.
func checkVisible(t *testing.T, h *Hub, ex *Exchange, want, wantTraced bool) {
	t.Helper()
	_, found := h.ExchangeByID(ex.ID)
	stages := len(h.StageVersions(ex))
	_, err := h.PrivateInstance(ex)
	wantStages := 0
	if want {
		wantStages = 4
	}
	if found != want || stages != wantStages || (err == nil) != want {
		t.Errorf("exchange %s: found %v, %d stage instances, private instance error %v; want visible %v", ex.ID, found, stages, err, want)
	}
	if traced := len(h.Trace(ex.ID)) > 0 && len(h.Events(ex.ID)) > 0; traced != wantTraced {
		t.Errorf("exchange %s: traced %v, want %v", ex.ID, traced, wantTraced)
	}
}

// TestRetentionWindowVisibility drives exchanges one at a time past the
// retention window: exactly the newest RetentionWindow finished exchanges
// stay visible through ExchangeByID, StageVersions, PrivateInstance, Trace
// and Events, and the older ones through none of them, their instances gone
// from the engine's store. Dead letters parked before the run keep their
// records, instances and traces however many exchanges finished after
// them. Rerun to success, each joins the window after its rerun, and the
// two age out the window's four oldest exchanges.
func TestRetentionWindowVisibility(t *testing.T) {
	ctx := context.Background()
	h := newFig14Hub(t)
	sap := wrapFaulty(h)["SAP"]
	h.SetDefaultRetryPolicy(RetryPolicy{MaxAttempts: 1})
	g := doc.NewGenerator(51)

	sap.SetSchedule(backend.FaultSchedule{ErrProb: 1})
	var parked []*Exchange
	for i := 0; i < 2; i++ {
		_, ex, err := roundTrip(h, ctx, g.PO(tp1, seller))
		if err == nil {
			t.Fatal("round trip against a down back end succeeded")
		}
		parked = append(parked, ex)
	}
	sap.SetSchedule(backend.FaultSchedule{})

	const agedOut = 64
	finished := make([]*Exchange, RetentionWindow+agedOut)
	for i := range finished {
		_, ex, err := roundTrip(h, ctx, g.PO(tp1, seller))
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		finished[i] = ex
	}
	for i, ex := range finished {
		checkVisible(t, h, ex, i >= agedOut, i >= agedOut)
	}
	for _, ex := range parked {
		checkVisible(t, h, ex, true, true)
	}
	if ids, _ := h.Engine.Store().ListInstances(); len(ids) != 4*(RetentionWindow+len(parked)) {
		t.Errorf("the store holds %d instances, want 4 for each of %d retained and %d parked exchanges", len(ids), RetentionWindow, len(parked))
	}
	if dls := h.DeadLetters(); len(dls) != len(parked) {
		t.Fatalf("dead-letter queue %v, want the %d parked exchanges", dls, len(parked))
	}

	for _, ex := range parked {
		if _, err := h.Resubmit(ctx, ex.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, ex := range finished[:agedOut+2*len(parked)] {
		checkVisible(t, h, ex, false, false)
	}
	for _, ex := range slices.Concat(finished[agedOut+2*len(parked):], parked) {
		checkVisible(t, h, ex, true, true)
	}
}

// TestSlowExchangeKeepsItsWholeTrace holds one TP1 exchange in SAP while
// RetentionWindow TP2 exchanges start and finish. Once it finishes it keeps
// its whole trace, from its started event on, with the same hops as a TP1
// exchange that was not held: its trace lives as long as its record, not
// for a number of exchanges started after it.
func TestSlowExchangeKeepsItsWholeTrace(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h := newFig14Hub(t)
	gate := gateSubmits(ctx, h, "SAP", 0)
	g := doc.NewGenerator(53)
	fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return gate.maxInside() == 1 })
	for i := 0; i < RetentionWindow; i++ {
		if _, _, err := roundTrip(h, ctx, g.PO(tp2, seller)); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	close(gate.open)
	res := fut.Result(ctx)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	slow := res.Exchange
	checkVisible(t, h, slow, true, true)
	evs := h.Events(slow.ID)
	if len(evs) == 0 || evs[0].Kind != obs.KindExchange || evs[0].Step != obs.StepStarted {
		t.Fatalf("the slow exchange's trace starts with %+v, want its started event", evs)
	}
	_, ref, err := roundTrip(h, ctx, g.PO(tp1, seller))
	if err != nil {
		t.Fatal(err)
	}
	// The first hop names the exchange's public instance.
	if got, want := h.Trace(slow.ID), h.Trace(ref.ID); len(got) == 0 || len(got) != len(want) || !slices.Equal(got[1:], want[1:]) {
		t.Errorf("the slow exchange's hops are %v, want those of an exchange that was not held: %v", got, want)
	}
}

// TestRetentionSoak runs 20,000 exchanges through a journaled Figure 14 hub
// (FsyncNever): what the hub keeps follows the retention window, not
// traffic. At 5,000 and at 20,000 exchanges the record table and the window
// each hold one window, the collector holds a trace for each record, and
// the store's instances (four per exchange) are within one window; the live heap after GC grows at most 1,024 B per exchange
// between the two; the journal, sampled every 250 exchanges, never exceeds
// 1.1 times the largest sample of the first 5,000; and a restart restores
// at most one window. It logs the restart's time and the stall a
// compaction adds at this live state.
func TestRetentionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 20,000 exchanges")
	}
	const total, early, batch = 20000, 5000, 250
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "hub.wal")
	h := journaledHub(t, path)
	g := doc.NewGenerator(61)
	buyers := []doc.Party{tp1, tp2}
	run := func(n int) {
		futs := make([]*Future, n)
		for i := range futs {
			fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(buyers[i%len(buyers)], seller)})
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = fut
		}
		for _, fut := range futs {
			if res := fut.Result(ctx); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	bounded := func(at int) {
		l := h.ledger
		l.mu.Lock()
		table, window := len(l.exchanges), len(l.done)
		l.mu.Unlock()
		ids, err := h.Engine.Store().ListInstances()
		if err != nil {
			t.Fatal(err)
		}
		traces := h.collector.Exchanges()
		t.Logf("at %d exchanges: %d records, %d retained, %d traces, %d instances", at, table, window, traces, len(ids))
		if table != RetentionWindow || window != RetentionWindow || traces != table || len(ids) > 4*RetentionWindow {
			t.Errorf("at %d exchanges the hub keeps %d records, %d retained, %d traces and %d instances; want %d, %d, one per record and at most %d",
				at, table, window, traces, len(ids), RetentionWindow, RetentionWindow, 4*RetentionWindow)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var heapEarly uint64
	var largestEarly int64
	for done := batch; done <= total; done += batch {
		run(batch)
		size, err := h.Journal().Size()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case done <= early:
			largestEarly = max(largestEarly, size)
		case float64(size) > 1.1*float64(largestEarly):
			t.Errorf("at %d exchanges the journal holds %d B, more than 1.1 times the %d B it held at most in the first %d", done, size, largestEarly, early)
		}
		if done == early {
			bounded(done)
			heapEarly = liveHeap()
		}
	}
	bounded(total)
	heapLate := liveHeap()
	growth := (float64(heapLate) - float64(heapEarly)) / (total - early)
	t.Logf("live heap %d B at %d exchanges, %d B at %d: %.0f B per exchange; journal at most %d B in the first %d, %d compactions",
		heapEarly, early, heapLate, total, growth, largestEarly, early, h.Journal().Stats().Rotations)
	if growth > 1024 {
		t.Errorf("the live heap grew %.0f B per exchange from %d to %d exchanges, more than 1,024", growth, early, total)
	}

	if err := h.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// Restart on the journal as the run left it: the live index of the last
	// automatic compaction and the records appended since.
	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	start := time.Now()
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("restart: %d records read, %d exchanges restored in %v", rep.Records, rep.Restored, time.Since(start))
	if rep.Restored > RetentionWindow {
		t.Errorf("restart restored %d exchanges, more than the window's %d", rep.Restored, RetentionWindow)
	}
	// The restarted hub holds the soak's live state: no admission pending,
	// no dead letter.
	stall := time.Now()
	if err := h2.CheckpointJournal(); err != nil {
		t.Fatal(err)
	}
	t.Logf("a compaction at this live state holds the ledger for %v", time.Since(stall))
}

// TestAgeOutCrashDrill crashes a journaled hub once the retention window has
// aged exchanges out and the journal has compacted on its own: before and
// after the terminal record of an exchange whose earlier neighbours aged
// out, and inside the automatic compaction. A second hub recovers the
// journal on the same back ends and reruns whatever it restores to its
// queue. It passes checkLedger, and every order, acknowledged each one, is
// stored exactly once: exactly-once rests on the back ends' duplicate-order
// guard, not on retained records.
func TestAgeOutCrashDrill(t *testing.T) {
	for _, point := range []string{"before", "after", "compaction"} {
		t.Run(point, func(t *testing.T) { ageOutCrash(t, point) })
	}
}

func ageOutCrash(t *testing.T, point string) {
	const n, crashAt = RetentionWindow + 16, RetentionWindow + 8
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "hub.wal")
	g := doc.NewGenerator(71)
	buyers := []doc.Party{tp1, tp2}

	h1 := journaledHub(t, path)
	backends := wrapFaulty(h1)
	var first *Exchange
	for i := 0; i < n; i++ {
		switch {
		case point == "compaction" && i == RetentionWindow-1:
			// The exchange that brings the appended records to twice
			// the window compacts; the crash leaves the rewrite unrenamed.
			h1.Journal().ArmCompactCrash()
		case point != "compaction" && i == crashAt:
			if _, ok := h1.ExchangeByID(first.ID); ok {
				t.Fatalf("exchange %s did not age out before exchange %d", first.ID, i+1)
			}
			h1.Journal().Arm(journal.CrashPoint{
				Match:  func(r journal.Record) bool { return r.Kind == recComplete },
				Before: point == "before",
			})
		}
		_, ex, err := roundTrip(h1, ctx, g.PO(buyers[i%len(buyers)], seller))
		if err != nil {
			t.Fatalf("exchange %d: %v", i+1, err)
		}
		if first == nil {
			first = ex
		}
	}
	if !h1.Journal().Crashed() {
		t.Fatal("the crash point did not fire")
	}
	// h1 is abandoned with its journal unclosed, as a crash leaves it.

	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	h2.WrapBackends(func(sys backend.System) backend.System { return backends[sys.Name()] })
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, h2, false)
	wantReplays := 0
	if point == "before" {
		// The crashed exchange's admission: its store is a duplicate, and
		// its acknowledgment, consumed by the original run, is not there
		// to extract, so the replay parks once more.
		wantReplays = 1
	}
	if rep.Restored > RetentionWindow || rep.Reenqueued != wantReplays || rep.Recovered+rep.Redelivered != wantReplays || len(h2.DeadLetters()) != rep.Redelivered {
		t.Errorf("recovery %+v with %d dead letters; want at most %d restored and %d replays", rep, len(h2.DeadLetters()), RetentionWindow, wantReplays)
	}
	for _, dl := range h2.DeadLetters() {
		_, _ = h2.Resubmit(ctx, dl.ExchangeID)
	}
	checkLedger(t, h2, false)
	stored := 0
	for _, f := range backends {
		stored += f.Inner().StoredOrders()
	}
	if stored != n {
		t.Errorf("the back ends store %d orders, want each of the %d acknowledged orders once", stored, n)
	}
}

// TestAutomaticCompaction: the journal compacts itself in the transition
// whose append brings the records appended since the last compaction to
// twice the retention window, or to the live index's record count when that
// is larger, and keeps only the live index. A compaction that fails leaves
// the old log authoritative and the transition unharmed, and is tried again
// a window later. It logs the stall a compaction adds with 10,000
// unresolved dead letters.
func TestAutomaticCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	ffs := journal.NewFaultFS(journal.OSFS(), 1)
	h := journaledHub(t, path, WithJournalFS(ffs))
	defer h.CloseJournal()
	l := h.ledger
	// cycle appends n admissions and their aborts, 2n records.
	cycle := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			key, err := l.admit(&admission{req: journalRequest{Kind: DocPO}}, []byte(`{"kind":"po"}`))
			if err != nil {
				t.Fatal(err)
			}
			l.abort(key, ErrHubStopped)
		}
	}
	compactions := func(want int64) {
		t.Helper()
		if got := h.Journal().Stats().Rotations; got != want {
			t.Fatalf("%d compactions, want %d", got, want)
		}
	}

	cycle(RetentionWindow - 1)
	compactions(0)
	cycle(1)
	compactions(1)
	if recs := fileRecords(t, path); len(recs) != 1 || recs[0].Kind != recCheckpoint {
		t.Fatalf("the compacted journal holds %d records, want its checkpoint only", len(recs))
	}

	ffs.Arm(journal.FaultSyncLoss) // appends are not synced under FsyncNever; the compaction's rewrite is
	cycle(RetentionWindow)
	compactions(1)
	if recs := fileRecords(t, path); len(recs) != 1+2*RetentionWindow {
		t.Fatalf("after a failed compaction the journal holds %d records, want the old log's %d", len(recs), 1+2*RetentionWindow)
	}
	ffs.Heal()
	cycle(RetentionWindow - 1)
	compactions(1)
	cycle(1)
	compactions(2)

	// A live index larger than twice the window sets the threshold.
	const dead = 10000
	g := doc.NewGenerator(81)
	l.mu.Lock()
	for i := 0; i < dead; i++ {
		out := &journalOutcome{
			ExchangeID: fmt.Sprintf("ex-%06d", 900000+i), Partner: tp1.ID, Flow: "po", Outcome: outcomeDeadLetter,
			Reason: "backend down", Request: toJournalRequest(&Request{Kind: DocPO, PO: g.PO(tp1, seller)}),
		}
		l.link(&deadEntry{dl: DeadLetter{ExchangeID: out.ExchangeID, Partner: tp1.ID}, rec: out}, dlQueued)
	}
	live := l.liveRecords()
	l.mu.Unlock()
	cycle(live / 2)
	compactions(2)
	start := time.Now()
	cycle(1)
	stall := time.Since(start)
	compactions(3)
	if recs := fileRecords(t, path); len(recs) != live {
		t.Fatalf("the compacted journal holds %d records, want the live index's %d", len(recs), live)
	}
	t.Logf("a compaction with %d unresolved dead letters holds the ledger for %v", dead, stall)
}

// TestRecoverRestoresOneWindow: a journal holding more finished outcomes
// than the retention window (one no automatic compaction has trimmed) is
// read whole, but only its newest RetentionWindow exchanges are restored.
func TestRecoverRestoresOneWindow(t *testing.T) {
	const n = RetentionWindow + 10
	path := filepath.Join(t.TempDir(), "hub.wal")
	recs := make([]journal.Record, n)
	for i := range recs {
		recs[i] = journal.Record{Kind: recComplete, Payload: []byte(fmt.Sprintf(`{"ex":"ex-%06d","partner":"TP1","flow":"po","outcome":"completed"}`, i+1))}
	}
	writeJournal(t, path, recs)
	h := journaledHub(t, path)
	defer h.CloseJournal()
	rep, err := h.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != n || rep.Restored != RetentionWindow {
		t.Fatalf("recovery %+v; want %d records read and %d exchanges restored", rep, n, RetentionWindow)
	}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("ex-%06d", i)
		if _, ok := h.ExchangeByID(id); ok != (i > n-RetentionWindow) {
			t.Errorf("exchange %s restored: %v", id, ok)
		}
	}
}

// TestOpenHandsOverJournalRecords: the hub takes the journal's open-time
// records over, so the journal keeps none of them, payloads included, for
// its lifetime; its Stats still count them.
func TestOpenHandsOverJournalRecords(t *testing.T) {
	const n = 6
	path := filepath.Join(t.TempDir(), "hub.wal")
	g := doc.NewGenerator(91)
	var recs []journal.Record
	for i := 1; i <= n/2; i++ {
		key := fmt.Sprintf("j-%08d", i)
		recs = append(recs, admitRecords(t, key, Request{Kind: DocPO, PO: g.PO(tp1, seller)}, 0)...)
		recs = append(recs, journal.Record{Kind: recComplete, Key: key, Payload: []byte(`{"outcome":"aborted"}`)})
	}
	writeJournal(t, path, recs)
	h := journaledHub(t, path)
	defer h.CloseJournal()
	if got := h.Journal().Records(); got != nil {
		t.Errorf("the journal still holds %d open-time records after NewHub", len(got))
	}
	if got := h.Journal().Stats().Records; got != n {
		t.Errorf("Stats().Records = %d, want %d", got, n)
	}
	if rep, err := h.Recover(context.Background()); err != nil || rep.Records != n {
		t.Errorf("recovery %+v, %v; want %d records read", rep, err, n)
	}
}

// TestFailedStartIsForgotten: an invoice for an order never billed fails
// as its application binding starts, and the engine stores the failed
// instance. The exchange records it, so when a full queue without a
// journal drops the exchange's dead letter and the window then ages the
// exchange out, the instance goes with it.
func TestFailedStartIsForgotten(t *testing.T) {
	ctx := context.Background()
	h := newFig14Hub(t, WithDLQCap(1))
	if _, err := h.EnableInvoicing(); err != nil {
		t.Fatal(err)
	}
	var failed []*Exchange
	for _, poID := range []string{"PO-NEVER-PLACED-1", "PO-NEVER-PLACED-2"} {
		_, ex, err := invoiceFor(h, ctx, "TP1", poID)
		if err == nil || ex == nil || ex.AppID == "" {
			t.Fatalf("invoice for unbilled %s: exchange %+v, %v; want a failure that records its application instance", poID, ex, err)
		}
		failed = append(failed, ex)
	}
	// The queue kept the first dead letter and dropped the second, whose
	// exchange the window retains until RetentionWindow newer ones finish.
	g := doc.NewGenerator(52)
	for i := 0; i < RetentionWindow; i++ {
		if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err != nil {
			t.Fatal(err)
		}
	}
	dropped := failed[1]
	if _, ok := h.ExchangeByID(dropped.ID); ok {
		t.Fatalf("exchange %s is still retained", dropped.ID)
	}
	if _, err := h.Engine.Instance(dropped.AppID); !errors.Is(err, wf.ErrNotFound) {
		t.Fatalf("failed start %s of aged-out exchange %s: %v, want it forgotten", dropped.AppID, dropped.ID, err)
	}
	if _, ok := h.ExchangeByID(failed[0].ID); !ok || len(h.DeadLetters()) != 1 {
		t.Fatalf("the queued dead letter %s lost its record", failed[0].ID)
	}
}
