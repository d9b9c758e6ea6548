package repro

// Deterministic chaos harness for the hub's reliability layer: seeded
// backend fault schedules (errors, latency, hangs) across all three
// protocols under the concurrent worker pool. The invariants checked per
// schedule are the exactly-once accounting contract of the dead-letter
// design:
//
//   1. every submitted exchange resolves, and is terminally accounted as
//      completed or dead-lettered — never both, never neither;
//   2. backends are never double-mutated: each order is stored at most
//      once, and an exchange that dead-lettered before its store step
//      contributed no mutation;
//   3. the obs counters reconcile exactly with the per-exchange event
//      streams (started / terminal / dead-letter events);
//   4. after healing the faults, resubmitting every dead letter completes
//      it, ending with each order stored exactly once system-wide.
//
// Schedules are seeded, so failures reproduce; scripts/chaos.sh sweeps
// seed offsets via the CHAOS_SEED environment variable.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cfgstore"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/wf"
)

// chaosSchedule is one sweep point: a fault schedule plus the retry policy
// that must absorb (or exhaust against) it.
type chaosSchedule struct {
	name   string
	faults backend.FaultSchedule
	policy core.RetryPolicy
	// wantDeadLetters marks schedules whose fault rate is designed to
	// exceed the retry budget for some exchanges.
	wantDeadLetters bool
}

// chaosSeedOffset lets scripts/chaos.sh sweep the same invariants across
// many fault streams (CHAOS_SEED=n shifts every schedule's seed by n).
func chaosSeedOffset() int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 0
}

func chaosSchedules() []chaosSchedule {
	off := chaosSeedOffset()
	return []chaosSchedule{
		{
			name:   "transient-errors",
			faults: backend.FaultSchedule{ErrProb: 0.25, Seed: 42 + off},
			policy: core.RetryPolicy{MaxAttempts: 25, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
		},
		{
			name:   "errors-with-latency",
			faults: backend.FaultSchedule{ErrProb: 0.15, Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond, Seed: 7 + off},
			policy: core.RetryPolicy{MaxAttempts: 25, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
		},
		{
			name:   "hangs",
			faults: backend.FaultSchedule{HangProb: 0.2, Seed: 99 + off},
			policy: core.RetryPolicy{MaxAttempts: 25, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, PerAttemptTimeout: 25 * time.Millisecond},
		},
		{
			name:            "overload",
			faults:          backend.FaultSchedule{ErrProb: 0.6, HangProb: 0.1, Seed: 1234 + off},
			policy:          core.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, PerAttemptTimeout: 20 * time.Millisecond},
			wantDeadLetters: true,
		},
	}
}

// chaosHub assembles the three-protocol hub (Figure 14 + the Figure 15
// OAGIS partner) with every backend wrapped in the schedule's Faulty
// decorator.
func chaosHub(t *testing.T, sc chaosSchedule, opts ...core.HubOption) (*core.Hub, map[string]*backend.Faulty) {
	t.Helper()
	model, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := core.NewHub(model, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.AddPartner(core.Figure15Partner()); err != nil {
		t.Fatal(err)
	}
	faulties := map[string]*backend.Faulty{}
	hub.WrapBackends(func(sys backend.System) backend.System {
		f := backend.NewFaulty(sys, sc.faults)
		faulties[f.Name()] = f
		return f
	})
	hub.SetDefaultRetryPolicy(sc.policy)
	return hub, faulties
}

func TestChaosExactlyOnceAccounting(t *testing.T) {
	const (
		workers          = 8
		ordersPerPartner = 40
	)
	for _, sc := range chaosSchedules() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			hub, faulties := chaosHub(t, sc, core.WithShards(4), core.WithWorkersPerShard(workers/4))
			defer hub.Drain(context.Background())

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			// Submit every partner's order stream through the pool.
			type sub struct {
				po  *doc.PurchaseOrder
				fut *core.Future
			}
			var subs []sub
			for pi, p := range hub.Snapshot().Model.Partners {
				buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
				g := doc.NewGenerator(int64(1000*pi) + sc.faults.Seed)
				for i := 0; i < ordersPerPartner; i++ {
					po := g.PO(buyer, doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"})
					fut, err := hub.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
					if err != nil {
						t.Fatalf("submit %s/%d: %v", p.ID, i, err)
					}
					subs = append(subs, sub{po: po, fut: fut})
				}
			}
			submitted := len(subs)

			// Resolve every future: each exchange is exactly one of
			// completed (correct correlation) or failed.
			completed, failed := 0, 0
			failedIDs := map[string]bool{}
			exchangeIDs := make([]string, 0, submitted)
			for i, s := range subs {
				res := s.fut.Result(ctx)
				if res.Exchange == nil {
					t.Fatalf("submission %d resolved without an exchange record (err %v)", i, res.Err)
				}
				exchangeIDs = append(exchangeIDs, res.Exchange.ID)
				if res.Err != nil {
					failed++
					failedIDs[res.Exchange.ID] = true
					continue
				}
				completed++
				if res.POA == nil || res.POA.POID != s.po.ID {
					t.Fatalf("submission %d: wrong correlation %+v", i, res.POA)
				}
			}
			if completed+failed != submitted {
				t.Fatalf("accounting: %d completed + %d failed != %d submitted", completed, failed, submitted)
			}

			// Counters reconcile with the resolved futures and the DLQ.
			c := hub.Status().Exchanges
			dls := hub.DeadLetters()
			if c.Started != int64(submitted) {
				t.Fatalf("counters.Started %d != %d submitted", c.Started, submitted)
			}
			if c.ByFlow[obs.FlowPO] != int64(submitted) {
				t.Fatalf("terminal events %d != %d submitted", c.ByFlow[obs.FlowPO], submitted)
			}
			if c.Failed != int64(failed) {
				t.Fatalf("counters.Failed %d != %d failed futures", c.Failed, failed)
			}
			if c.DeadLettered != int64(failed) || len(dls) != failed {
				t.Fatalf("dead letters %d/%d != %d failed", c.DeadLettered, len(dls), failed)
			}
			if sc.wantDeadLetters && failed == 0 {
				t.Fatalf("schedule %s was designed to overflow the retry budget but nothing dead-lettered", sc.name)
			}
			if !sc.wantDeadLetters && failed != 0 {
				t.Fatalf("schedule %s dead-lettered %d exchanges despite a sufficient retry budget", sc.name, failed)
			}

			// Per-exchange event streams reconcile with the counters:
			// exactly one started and one terminal event each, a
			// dead-letter event iff the exchange failed, and retry attempt
			// events summing to the retry counter.
			var attemptEvents int64
			for _, id := range exchangeIDs {
				started, finished, failedEv, deadEv := 0, 0, 0, 0
				for _, e := range hub.Events(id) {
					switch {
					case e.Kind == obs.KindRetry && e.Step == obs.StepAttempt:
						attemptEvents++
					case e.Kind != obs.KindExchange:
					case e.Step == obs.StepStarted:
						started++
					case e.Step == obs.StepFinished:
						finished++
					case e.Step == obs.StepFailed:
						failedEv++
					case e.Step == obs.StepDeadLetter:
						deadEv++
					}
				}
				if started != 1 || finished+failedEv != 1 {
					t.Fatalf("exchange %s: %d started, %d finished, %d failed events", id, started, finished, failedEv)
				}
				wantDead := 0
				if failedIDs[id] {
					wantDead = 1
				}
				if failedEv != wantDead || deadEv != wantDead {
					t.Fatalf("exchange %s: failed=%v but %d failed / %d dead-letter events", id, failedIDs[id], failedEv, deadEv)
				}
			}
			if c.Retries != attemptEvents {
				t.Fatalf("counters.Retries %d != %d attempt events", c.Retries, attemptEvents)
			}

			// Exactly-once mutation: the number of orders the backends hold
			// equals the number of exchanges whose store step succeeded —
			// a dead-lettered exchange that never stored contributed none,
			// and no order was stored twice.
			storesSeen := 0
			for _, id := range exchangeIDs {
				for _, e := range hub.Events(id) {
					if e.Kind == obs.KindStep && strings.HasPrefix(e.Step, "Store ") && e.Err == nil {
						storesSeen++
					}
				}
			}
			storedTotal := 0
			for _, f := range faulties {
				storedTotal += f.Inner().StoredOrders()
			}
			if storedTotal != storesSeen {
				t.Fatalf("backends hold %d orders but %d store steps succeeded", storedTotal, storesSeen)
			}

			// Heal the backends and resubmit every dead letter: the queue
			// drains, every replay completes, and each submitted order ends
			// up stored exactly once system-wide.
			for _, f := range faulties {
				f.SetSchedule(backend.FaultSchedule{})
			}
			for _, dl := range hub.DeadLetters() {
				ex, err := hub.Resubmit(ctx, dl.ExchangeID)
				if err != nil {
					t.Fatalf("resubmit %s: %v", dl.ExchangeID, err)
				}
				if ex.Outbound == nil {
					t.Fatalf("resubmitted exchange %s produced no outbound document", ex.ID)
				}
			}
			if n := len(hub.DeadLetters()); n != 0 {
				t.Fatalf("dead-letter queue holds %d entries after the drain", n)
			}
			storedTotal = 0
			for _, f := range faulties {
				storedTotal += f.Inner().StoredOrders()
			}
			if storedTotal != submitted {
				t.Fatalf("backends hold %d orders after healing, want %d (each order exactly once)", storedTotal, submitted)
			}
			t.Logf("%s: %d submitted = %d completed + %d dead-lettered; %d retries; %d injected faults",
				sc.name, submitted, completed, failed, c.Retries,
				func() (n int64) {
					for _, f := range faulties {
						n += f.InjectedErrors() + f.Hangs()
					}
					return
				}())
		})
	}
}

// TestChaosPartnerOutageBreaker: the partner-outage schedule. TP2's Oracle
// backend goes hard down (100% injected errors) while TP1 and TP3 stay
// healthy; with the breaker enabled the outage plays out as closed → open
// (fast-fails and sheds park in the DLQ without burning retry budgets) →
// half-open probes after the backend heals → closed, and dead-letter
// resubmission then delivers every order exactly once. The exactly-once
// accounting contract of the chaos harness must hold at every phase.
func TestChaosPartnerOutageBreaker(t *testing.T) {
	defer leakcheck.Check(t)()
	sc := chaosSchedule{
		name:   "partner-outage",
		faults: backend.FaultSchedule{}, // healthy baseline; the outage is set per backend below
		policy: core.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	}
	hub, faulties := chaosHub(t, sc,
		core.WithShards(4), core.WithWorkersPerShard(2),
		core.WithHealth(health.Config{
			Window:        2 * time.Second,
			Threshold:     0.5,
			MinSamples:    3,
			ProbeInterval: 10 * time.Millisecond,
		}))
	defer hub.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	hubParty := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}

	// Phase 1 — outage: TP2's backend fails every operation.
	faulties["Oracle"].SetSchedule(backend.FaultSchedule{ErrProb: 1, Seed: 21 + chaosSeedOffset()})

	const ordersPerPartner = 30
	gens := map[string]*doc.Generator{}
	submitted, failed := 0, 0
	var futs []*core.Future
	for pi, p := range hub.Snapshot().Model.Partners {
		buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
		g := doc.NewGenerator(int64(2000*pi) + 17 + chaosSeedOffset())
		gens[p.ID] = g
		for i := 0; i < ordersPerPartner; i++ {
			fut, err := hub.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: g.PO(buyer, hubParty)})
			if err != nil {
				t.Fatalf("submit %s/%d: %v", p.ID, i, err)
			}
			submitted++
			futs = append(futs, fut)
		}
	}
	tp2Party := doc.Party{ID: "TP2", Name: "Trading Partner 2", DUNS: "222222222"}
	for i, fut := range futs {
		res := fut.Result(ctx)
		if res.Exchange == nil {
			t.Fatalf("submission %d resolved without an exchange record (err %v)", i, res.Err)
		}
		if res.Err != nil {
			failed++
			if res.Exchange.Partner.ID != "TP2" {
				t.Fatalf("healthy partner %s failed during TP2's outage: %v", res.Exchange.Partner.ID, res.Err)
			}
		}
	}
	if failed != ordersPerPartner {
		t.Fatalf("outage phase: %d failures, want all %d TP2 orders (and only those)", failed, ordersPerPartner)
	}
	if got := hub.Health().StateOf("TP2"); got == health.StateClosed {
		t.Fatalf("TP2 breaker still closed after a %d-order hard outage", ordersPerPartner)
	}

	// The circuit is now guarding admission: within a few submissions one
	// must be rejected outright with ErrPartnerUnavailable (a submission
	// hitting the instant after a failed probe re-armed the interval runs
	// as that probe instead, so allow a short run of them).
	sawFastFail := false
	for i := 0; i < 5 && !sawFastFail; i++ {
		_, err := hub.Do(ctx, core.Request{Kind: core.DocPO, PO: gens["TP2"].PO(tp2Party, hubParty)})
		if err == nil {
			t.Fatal("TP2 exchange succeeded while its backend is hard down")
		}
		submitted++
		failed++
		sawFastFail = errors.Is(err, core.ErrPartnerUnavailable)
	}
	if !sawFastFail {
		t.Fatal("no submission fast-failed with ErrPartnerUnavailable against the open circuit")
	}

	// Accounting holds mid-outage: every failure is dead-lettered, every
	// fast-fail/shed included; nothing healthy was dead-lettered.
	c := hub.Status().Exchanges
	dls := hub.DeadLetters()
	if c.Started != int64(submitted) || c.ByFlow[obs.FlowPO] != int64(submitted) {
		t.Fatalf("counters started=%d terminal=%d, want %d submitted", c.Started, c.ByFlow[obs.FlowPO], submitted)
	}
	if c.Failed != int64(failed) || c.DeadLettered != int64(failed) || len(dls) != failed {
		t.Fatalf("failed=%d dead-lettered=%d dlq=%d, want %d", c.Failed, c.DeadLettered, len(dls), failed)
	}
	for _, dl := range dls {
		if dl.Partner != "TP2" {
			t.Fatalf("dead letter for healthy partner %s", dl.Partner)
		}
	}

	// Phase 2 — heal: the backend recovers; the next admitted probe
	// succeeds and closes the circuit. Until the probe fires, submissions
	// may still fast-fail against the open circuit — they join the DLQ.
	faulties["Oracle"].SetSchedule(backend.FaultSchedule{})
	healDeadline := time.Now().Add(30 * time.Second)
	healed := false
	for !healed {
		if time.Now().After(healDeadline) {
			t.Fatal("TP2 circuit did not close within 30s of the backend healing")
		}
		_, err := hub.Do(ctx, core.Request{Kind: core.DocPO, PO: gens["TP2"].PO(tp2Party, hubParty)})
		submitted++
		switch {
		case err == nil:
			healed = true
		case errors.Is(err, core.ErrPartnerUnavailable):
			failed++ // fast-fail while the probe timer is armed: parked
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("unexpected post-heal failure: %v", err)
		}
	}
	if got := hub.Health().StateOf("TP2"); got != health.StateClosed {
		t.Fatalf("TP2 breaker %v after successful probe, want closed", got)
	}

	// Phase 3 — replay: every dead letter resubmits cleanly and each
	// submitted order ends up stored exactly once system-wide.
	for _, dl := range hub.DeadLetters() {
		if _, err := hub.Resubmit(ctx, dl.ExchangeID); err != nil {
			t.Fatalf("resubmit %s: %v", dl.ExchangeID, err)
		}
	}
	if n := len(hub.DeadLetters()); n != 0 {
		t.Fatalf("dead-letter queue holds %d entries after the post-heal drain", n)
	}
	storedTotal := 0
	for _, f := range faulties {
		storedTotal += f.Inner().StoredOrders()
	}
	if storedTotal != submitted {
		t.Fatalf("backends hold %d orders, want %d (each submitted order exactly once)", storedTotal, submitted)
	}

	hm := hub.Status().Partners
	if len(hm) == 0 {
		t.Fatal("no partner-health gauges recorded through the outage")
	}
	for _, g := range hm {
		if g.Partner != "TP2" && (g.Opens > 0 || g.Sheds > 0 || g.FastFails > 0) {
			t.Fatalf("healthy partner %s shows breaker activity: %+v", g.Partner, g)
		}
		if g.Partner == "TP2" && (g.Opens == 0 || g.Closes == 0 || g.Probes == 0 || g.State != "closed") {
			t.Fatalf("TP2 gauges %+v, want opens/probes/closes > 0 and a closed end state", g)
		}
	}
	t.Logf("partner-outage: %d submitted, %d parked and replayed, TP2 gauges %+v", submitted, failed, hm)
}

// TestChaosCancellationAccounting: cancelling mid-flight still accounts
// every exchange exactly once — whatever was started terminates as
// finished or failed-and-dead-lettered, and nothing leaks in between.
func TestChaosCancellationAccounting(t *testing.T) {
	sc := chaosSchedule{
		name:   "cancel",
		faults: backend.FaultSchedule{ErrProb: 0.2, Latency: time.Millisecond, Seed: 5 + chaosSeedOffset()},
		policy: core.RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
	}
	defer leakcheck.Check(t)()
	hub, _ := chaosHub(t, sc, core.WithShards(2), core.WithWorkersPerShard(2))
	defer hub.Drain(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	var futs []*core.Future
	g := doc.NewGenerator(3)
	buyer := doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}
	hubParty := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
	for i := 0; i < 60; i++ {
		fut, err := hub.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: g.PO(buyer, hubParty)})
		if err != nil {
			break // pool rejected after cancel: fine
		}
		futs = append(futs, fut)
		if i == 20 {
			cancel()
		}
	}
	defer cancel()
	wait, waitCancel := context.WithTimeout(context.Background(), time.Minute)
	defer waitCancel()
	resolved := 0
	for _, f := range futs {
		res := f.Result(wait)
		if res.Err == nil && res.POA == nil {
			t.Fatal("future resolved without result or error")
		}
		resolved++
	}
	if resolved != len(futs) {
		t.Fatalf("resolved %d of %d futures", resolved, len(futs))
	}
	c := hub.Status().Exchanges
	if got := c.ByFlow[obs.FlowPO]; got != c.Started {
		t.Fatalf("started %d but %d terminal events", c.Started, got)
	}
	if c.Failed != c.DeadLettered {
		t.Fatalf("failed %d != dead-lettered %d", c.Failed, c.DeadLettered)
	}
}

// TestChaosCrashRecovery: the journal's crash-point injector kills the hub
// at each named point of the admit → execute → commit protocol, then a
// second incarnation reopens the same journal against the SAME backend
// instances (the ERP survives the hub crash) and Recovers. The invariant at
// every point is exactly-once mutation across the restart: the backend
// holds each order exactly once, whatever the crash swallowed — and when
// the completion record was lost after execution, the replay re-delivers
// at most once into the dead-letter queue instead of double-executing.
func TestChaosCrashRecovery(t *testing.T) {
	buyer := doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}
	hubParty := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
	off := chaosSeedOffset()

	type crashCase struct {
		name string
		// arm freezes the journal at the crash point (nil: no freeze).
		arm func(j *journal.Journal)
		// faults is hub1's backend schedule ({}: healthy).
		faults backend.FaultSchedule
		// wantErr marks cases whose doomed run fails before the crash.
		wantErr bool
		// check asserts the recovery outcome.
		check func(t *testing.T, rep core.RecoveryReport, hub2 *core.Hub, stored int)
	}
	cases := []crashCase{
		{
			// Crash before the admission record: the doomed process still
			// executed the exchange, but nothing durable says so. Recovery
			// replays nothing — and must not invent a second execution.
			name: "admit-lost",
			arm: func(j *journal.Journal) {
				j.Arm(journal.CrashPoint{Match: func(r journal.Record) bool { return r.Kind == "admit" }, Before: true})
			},
			check: func(t *testing.T, rep core.RecoveryReport, hub2 *core.Hub, stored int) {
				if rep.Reenqueued != 0 || rep.Restored != 0 || rep.DeadLetters != 0 {
					t.Fatalf("recovered %+v from a journal the crash kept empty", rep)
				}
				if stored != 1 {
					t.Fatalf("backend holds %d orders, want 1 (doomed run's store)", stored)
				}
			},
		},
		{
			// Crash between "executed" and "journaled-complete": the classic
			// window. The admission is durable, the execution happened, the
			// outcome record is lost. Recovery re-runs under resubmit
			// tolerance: the store step is satisfied by the backend's
			// duplicate elimination (no double mutation) and the already-
			// consumed acknowledgment dead-letters the replay — at-most-once
			// re-delivery into the DLQ, never double execution.
			name: "executed-uncommitted",
			arm: func(j *journal.Journal) {
				j.Arm(journal.CrashPoint{Match: func(r journal.Record) bool { return r.Kind == "complete" }, Before: true})
			},
			check: func(t *testing.T, rep core.RecoveryReport, hub2 *core.Hub, stored int) {
				if rep.Reenqueued != 1 || rep.Redelivered != 1 || rep.Recovered != 0 {
					t.Fatalf("recovery report %+v, want the replay re-delivered", rep)
				}
				if stored != 1 {
					t.Fatalf("backend holds %d orders, want exactly 1 across crash and replay", stored)
				}
				if dls := hub2.DeadLetters(); len(dls) != 1 {
					t.Fatalf("DLQ holds %d entries, want the re-delivery notice", len(dls))
				}
			},
		},
		{
			// Crash right after the completion record: fully committed.
			// Recovery restores the exchange as a record and re-runs nothing.
			name: "completed-committed",
			arm: func(j *journal.Journal) {
				j.Arm(journal.CrashPoint{Match: func(r journal.Record) bool { return r.Kind == "complete" }})
			},
			check: func(t *testing.T, rep core.RecoveryReport, hub2 *core.Hub, stored int) {
				if rep.Restored != 1 || rep.Reenqueued != 0 {
					t.Fatalf("recovery report %+v, want 1 restored and nothing replayed", rep)
				}
				if stored != 1 {
					t.Fatalf("backend holds %d orders, want 1", stored)
				}
			},
		},
		{
			// The backend was hard down, the exchange dead-lettered durably,
			// then the hub died. The restored dead letter must be replayable:
			// after the backend heals, Resubmit delivers it exactly once.
			name:    "deadletter-committed",
			faults:  backend.FaultSchedule{ErrProb: 1, Seed: 21 + off},
			wantErr: true,
			check: func(t *testing.T, rep core.RecoveryReport, hub2 *core.Hub, stored int) {
				if rep.DeadLetters != 1 || rep.Reenqueued != 0 {
					t.Fatalf("recovery report %+v, want 1 restored dead letter", rep)
				}
				if stored != 0 {
					t.Fatalf("backend holds %d orders before resubmission, want 0", stored)
				}
				ctx := context.Background()
				for _, dl := range hub2.DeadLetters() {
					if _, err := hub2.Resubmit(ctx, dl.ExchangeID); err != nil {
						t.Fatalf("resubmit restored dead letter: %v", err)
					}
				}
			},
		},
		{
			// Crash mid-compaction: the rewrite exists, the rename never
			// happened. The next open must serve the old log.
			name: "compact-crash",
			check: func(t *testing.T, rep core.RecoveryReport, hub2 *core.Hub, stored int) {
				if rep.Restored != 1 || rep.Reenqueued != 0 {
					t.Fatalf("recovery report %+v, want 1 restored from the pre-compaction log", rep)
				}
				if stored != 1 {
					t.Fatalf("backend holds %d orders, want 1", stored)
				}
			},
		},
	}

	for ci, cc := range cases {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			path := filepath.Join(t.TempDir(), "hub.wal")
			model, err := core.PaperFigure14Model()
			if err != nil {
				t.Fatal(err)
			}
			hub1, err := core.NewHub(model, core.WithJournal(path), core.WithFsyncPolicy(journal.FsyncNever))
			if err != nil {
				t.Fatal(err)
			}
			// The crash below abandons hub1 with its journal un-closed; its
			// idle scheduler is stopped only when the test ends.
			defer hub1.Drain(context.Background())
			// The backends outlive the hub: captured here, re-wired into the
			// second incarnation below.
			shared := map[string]*backend.Faulty{}
			hub1.WrapBackends(func(sys backend.System) backend.System {
				f := backend.NewFaulty(sys, cc.faults)
				shared[f.Name()] = f
				return f
			})
			hub1.SetDefaultRetryPolicy(core.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond})
			if cc.arm != nil {
				cc.arm(hub1.Journal())
			}

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			g := doc.NewGenerator(int64(100*ci) + 31 + off)
			po := g.PO(buyer, hubParty)
			_, err = hub1.Do(ctx, core.Request{Kind: core.DocPO, PO: po})
			if cc.wantErr != (err != nil) {
				t.Fatalf("doomed run error = %v, wantErr %v", err, cc.wantErr)
			}
			if cc.name == "compact-crash" {
				hub1.Journal().ArmCompactCrash()
				if err := hub1.CheckpointJournal(); err != nil {
					t.Fatal(err)
				}
			}
			if cc.arm != nil || cc.name == "compact-crash" {
				if !hub1.Journal().Crashed() {
					t.Fatal("crash point did not fire")
				}
			}
			// hub1 is abandoned un-closed, as a crash would leave it.

			hub2, err := core.NewHub(model, core.WithJournal(path), core.WithFsyncPolicy(journal.FsyncNever))
			if err != nil {
				t.Fatal(err)
			}
			defer hub2.Drain(context.Background())
			defer hub2.CloseJournal()
			// The ERP survived the crash; heal any injected faults for the
			// recovery run.
			hub2.WrapBackends(func(sys backend.System) backend.System {
				f := shared[sys.Name()]
				f.SetSchedule(backend.FaultSchedule{})
				return f
			})
			hub2.SetDefaultRetryPolicy(core.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond})
			rep, err := hub2.Recover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			stored := 0
			for _, f := range shared {
				stored += f.Inner().StoredOrders()
			}
			cc.check(t, rep, hub2, stored)

			// Whatever the crash point, the system-wide terminal state is
			// exactly one stored copy of the order.
			finalStored := 0
			for _, f := range shared {
				finalStored += f.Inner().StoredOrders()
			}
			if finalStored != 1 {
				t.Fatalf("backends hold %d copies of the order after recovery, want exactly 1", finalStored)
			}
		})
	}
}

// TestChaosDiskFaults: the storage-fault drill. The journal's disk dies in
// every mode FaultFS speaks — write errors, short writes, fsync failures
// that drop the page cache, a full disk, and at-rest bit rot — under both
// durability failure policies. The invariants, per (fault × policy) cell:
//
//  1. exactly-once across the drill: every exchange the hub acknowledged
//     (Do returned nil) is stored in the backend exactly once after a
//     crash and recovery — acknowledged work is never lost to the fault
//     and never double-executed by the replay;
//  2. fail-stop rejects unloggable admissions with the typed sentinel and
//     resumes by itself once the disk heals;
//  3. degraded keeps serving non-durably, auto-re-arms on a fresh segment
//     when the disk heals, and its non-durable exchanges are never
//     replayed by the next incarnation;
//  4. mid-file corruption (bit rot, short-write debris under later valid
//     records) is quarantined by the reopen, so recovery proceeds past it
//     instead of truncating acknowledged history.
func TestChaosDiskFaults(t *testing.T) {
	buyer := doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}
	hubParty := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
	off := chaosSeedOffset()

	waitRearmed := func(t *testing.T, hub *core.Hub) *core.DurabilityStatus {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			ds := hub.Status().Durability
			if ds != nil && ds.Mode == "durable" && ds.Rearms == 1 {
				return ds
			}
			if time.Now().After(deadline) {
				t.Fatalf("journal never re-armed: %+v", ds)
			}
			time.Sleep(time.Millisecond)
		}
	}

	modes := []journal.FaultMode{
		journal.FaultWriteErr, journal.FaultShortWrite, journal.FaultSyncLoss,
		journal.FaultENOSPC, journal.FaultBitRot,
	}
	policies := []core.JournalFailurePolicy{core.FailStop, core.FailDegraded}
	for pi, policy := range policies {
		for mi, mode := range modes {
			policy, mode := policy, mode
			seed := int64(100*pi+10*mi) + 71 + off
			t.Run(string(policy)+"/"+string(mode), func(t *testing.T) {
				defer leakcheck.Check(t)()
				path := filepath.Join(t.TempDir(), "hub.wal")
				ffs := journal.NewFaultFS(nil, seed)
				model, err := core.PaperFigure14Model()
				if err != nil {
					t.Fatal(err)
				}
				hub1, err := core.NewHub(model,
					core.WithJournal(path),
					core.WithJournalFS(ffs),
					core.WithFsyncPolicy(journal.FsyncAlways),
					core.WithJournalFailurePolicy(policy),
					core.WithJournalProbeInterval(2*time.Millisecond))
				if err != nil {
					t.Fatal(err)
				}
				// The crash below abandons hub1 with its journal un-closed;
				// its idle scheduler is stopped only when the test ends.
				defer hub1.Drain(context.Background())
				// The ERP outlives the hub: captured here, re-wired into the
				// recovering incarnation below.
				shared := map[string]*backend.Faulty{}
				hub1.WrapBackends(func(sys backend.System) backend.System {
					f := backend.NewFaulty(sys, backend.FaultSchedule{})
					shared[f.Name()] = f
					return f
				})
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				g := doc.NewGenerator(seed)
				ack := func() string {
					t.Helper()
					res, err := hub1.Do(ctx, core.Request{Kind: core.DocPO, PO: g.PO(buyer, hubParty)})
					if err != nil {
						t.Fatalf("healthy-disk exchange failed: %v", err)
					}
					return res.Exchange.ID
				}

				// Phase 1 — healthy disk: two acknowledged, durable exchanges.
				acked := []string{ack(), ack()}
				durable := append([]string(nil), acked...)

				// Phase 2 — the fault window. Bit rot is a read-side fault:
				// appends keep succeeding and the damage is done at rest
				// below; every other mode breaks the admission append and
				// exercises the failure policy.
				var nonDurable []string
				if mode == journal.FaultENOSPC {
					ffs.ArmENOSPC(0)
				} else {
					ffs.Arm(mode)
				}
				for i := 0; i < 3; i++ {
					res, err := hub1.Do(ctx, core.Request{Kind: core.DocPO, PO: g.PO(buyer, hubParty)})
					switch {
					case mode == journal.FaultBitRot:
						if err != nil {
							t.Fatalf("bit rot broke an append: %v", err)
						}
						acked = append(acked, res.Exchange.ID)
						durable = append(durable, res.Exchange.ID)
					case policy == core.FailStop:
						if !errors.Is(err, core.ErrJournalUnavailable) {
							t.Fatalf("fail-stop admission on dead disk: %v, want ErrJournalUnavailable", err)
						}
					default: // degraded
						if err != nil {
							t.Fatalf("degraded admission rejected: %v", err)
						}
						acked = append(acked, res.Exchange.ID)
						nonDurable = append(nonDurable, res.Exchange.ID)
					}
				}
				if mode == journal.FaultBitRot {
					// The rot is visible to a read-only scrub through the
					// faulty medium even while appends succeed.
					rep, err := hub1.ScrubJournal()
					if err != nil {
						t.Fatal(err)
					}
					if rep.Corrupt == 0 && rep.TornBytes == 0 {
						t.Fatalf("scrub through rotting medium reported clean: %+v", rep)
					}
				} else if policy == core.FailDegraded {
					if ds := hub1.Status().Durability; ds.Mode != "degraded" || ds.NonDurableAdmits < 3 {
						t.Fatalf("durability status %+v, want a degraded episode with 3+ non-durable admits", ds)
					}
				}

				// Phase 3 — the disk heals. Fail-stop resumes on the next
				// admission; degraded re-arms via the prober first.
				ffs.Heal()
				if mode != journal.FaultBitRot && policy == core.FailDegraded {
					waitRearmed(t, hub1)
					// Re-arm compacts onto a fresh segment holding only the
					// live set: the completed healthy-phase exchanges are
					// checkpointed away and no longer restorable (their
					// outcomes live in the backend, counted below).
					durable = nil
				}
				id := ack()
				acked = append(acked, id)
				durable = append(durable, id)

				// Bit rot's lasting damage: flip a mid-file record at rest
				// (an acknowledged exchange's outcome) with valid records
				// after it, exactly what the reopen must quarantine rather
				// than truncate.
				wantCorrupt := 0
				if mode == journal.FaultBitRot {
					corruptJournalRecord(t, path, durable[2])
					// durable[2]'s complete record is rot: its admission will
					// re-deliver, not restore.
					durable = append(durable[:2], durable[3:]...)
					wantCorrupt = 1
				}
				if mode == journal.FaultShortWrite && policy == core.FailStop {
					// Fail-stop retried the append per admission, so the torn
					// half-frames sit as debris under the post-heal records:
					// one coalesced region for the reopen to quarantine.
					wantCorrupt = 1
				}
				// hub1 is abandoned un-closed, as a crash would leave it.

				hub2, err := core.NewHub(model,
					core.WithJournal(path),
					core.WithFsyncPolicy(journal.FsyncNever))
				if err != nil {
					t.Fatal(err)
				}
				defer hub2.Drain(context.Background())
				defer hub2.CloseJournal()
				hub2.WrapBackends(func(sys backend.System) backend.System {
					return shared[sys.Name()]
				})
				rep, err := hub2.Recover(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Corrupt != wantCorrupt {
					t.Fatalf("recovery report %+v, want %d quarantined regions", rep, wantCorrupt)
				}
				if rep.Restored != len(durable) {
					t.Fatalf("recovery report %+v, want %d durable exchanges restored", rep, len(durable))
				}

				// Invariant 1: every acknowledged exchange stored exactly
				// once across fault, crash and recovery — replays of the
				// rotted outcome re-deliver into the DLQ, never re-execute.
				stored := 0
				for _, f := range shared {
					stored += f.Inner().StoredOrders()
				}
				if stored != len(acked) {
					t.Fatalf("backends hold %d orders, want %d (one per acknowledged exchange)", stored, len(acked))
				}

				// Invariant 3: durable history survived; non-durable
				// (degraded-window) exchanges are gone by contract.
				for _, id := range durable {
					if _, ok := hub2.ExchangeByID(id); !ok {
						t.Fatalf("durable exchange %s lost across the drill", id)
					}
				}
				for _, id := range nonDurable {
					if _, ok := hub2.ExchangeByID(id); ok {
						t.Fatalf("non-durable exchange %s replayed — degraded admissions must never be", id)
					}
				}
				if mode == journal.FaultBitRot {
					if rep.Reenqueued != 1 || rep.Redelivered != 1 {
						t.Fatalf("recovery report %+v, want the rotted outcome re-delivered at most once", rep)
					}
					if _, err := os.Stat(journal.QuarantinePath(path)); err != nil {
						t.Fatalf("no quarantine sidecar after recovery: %v", err)
					}
				}
			})
		}
	}
}

// corruptJournalRecord flips the payload bytes of exchange exID's complete
// record in the journal at path, leaving the frames around it intact.
func corruptJournalRecord(t *testing.T, path string, exID string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := journal.Decode(data)
	offset := int64(0)
	for _, r := range recs {
		frame, ferr := journal.Encode(r)
		if ferr != nil {
			t.Fatal(ferr)
		}
		if r.Kind == "complete" && strings.Contains(string(r.Payload), `"`+exID+`"`) {
			for b := offset + 8; b < offset+int64(len(frame)); b++ {
				data[b] ^= 0xFF
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		offset += int64(len(frame))
	}
	t.Fatalf("no complete record for %s in %s", exID, path)
}

// TestChaosCanaryBrokenCandidate: a deliberately broken binding candidate
// is canaried onto TP1 while seeded backend faults rumble under all three
// partners. The candidate's hash-selected arm fails every exchange; the
// canary comparison must roll the partner back to the incumbent
// automatically, and the blast radius must stay exactly the candidate arm:
//
//  1. the canary settles on rollback and the incumbent version is active
//     again (config store, metrics and event stream all agree);
//  2. incumbent traffic is unaffected — every failure is a candidate-armed
//     TP1 exchange, and TP1's circuit breaker never opens (candidate
//     config failures must not indict the partner's endpoint);
//  3. exactly-once accounting holds through the incident: failed exchanges
//     dead-lettered before any backend mutation, and resubmitting them
//     after the rollback lands every order in a backend exactly once;
//  4. traffic submitted after the rollback runs entirely on the incumbent.
func TestChaosCanaryBrokenCandidate(t *testing.T) {
	defer leakcheck.Check(t)()
	sc := chaosSchedule{
		name:   "canary-broken-candidate",
		faults: backend.FaultSchedule{ErrProb: 0.25, Seed: 61 + chaosSeedOffset()},
		policy: core.RetryPolicy{MaxAttempts: 25, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
	}
	hub, faulties := chaosHub(t, sc,
		core.WithShards(4), core.WithWorkersPerShard(2),
		core.WithHealth(health.Config{
			Window:        2 * time.Second,
			Threshold:     0.5,
			MinSamples:    3,
			ProbeInterval: 10 * time.Millisecond,
		}),
		core.WithCanaryPolicy(cfgstore.CanaryPolicy{MinSamples: 6, Margin: 0.2}))
	defer hub.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	hubParty := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}

	// The broken candidate: TP1's EDI binding with its inbound transform
	// step pointed at a handler that always fails. The failure surfaces at
	// the binding stage — endpoint-attributable, so it feeds the canary
	// comparison (and would feed the breaker, were it not canary-armed).
	hub.RegisterHandler("canary-broken", func(ctx context.Context, in *wf.Instance, step *wf.StepDef) error {
		return errors.New("canary candidate misconfigured")
	})
	candidate, err := core.BuildBinding(formats.EDI)
	if err != nil {
		t.Fatal(err)
	}
	broke := false
	for i, s := range candidate.Steps {
		if strings.HasPrefix(s.Handler, "bind-xform-in") {
			candidate.Steps[i].Handler = "canary-broken"
			broke = true
			break
		}
	}
	if !broke {
		t.Fatal("no inbound transform step found in the EDI binding to break")
	}
	rec, err := hub.Apply(core.Canary{Partner: "TP1", Candidate: candidate, Fraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Canary
	incumbentVersion := c.Incumbent

	// Drive all three partners' order streams concurrently.
	const ordersPerPartner = 40
	type sub struct {
		po  *doc.PurchaseOrder
		fut *core.Future
	}
	var subs []sub
	gens := map[string]*doc.Generator{}
	for pi, p := range hub.Snapshot().Model.Partners {
		buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
		g := doc.NewGenerator(int64(3000*pi) + sc.faults.Seed)
		gens[p.ID] = g
		for i := 0; i < ordersPerPartner; i++ {
			po := g.PO(buyer, hubParty)
			fut, err := hub.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
			if err != nil {
				t.Fatalf("submit %s/%d: %v", p.ID, i, err)
			}
			subs = append(subs, sub{po: po, fut: fut})
		}
	}
	completed, failed := 0, 0
	for i, s := range subs {
		res := s.fut.Result(ctx)
		if res.Exchange == nil {
			t.Fatalf("submission %d resolved without an exchange record (err %v)", i, res.Err)
		}
		if res.Err != nil {
			failed++
			// Blast radius: only candidate-armed TP1 exchanges may fail.
			if res.Exchange.Partner.ID != "TP1" || !res.Exchange.CanaryArm() {
				t.Fatalf("non-candidate exchange failed during the canary: partner %s arm=%v err=%v",
					res.Exchange.Partner.ID, res.Exchange.CanaryArm(), res.Err)
			}
			continue
		}
		completed++
		if res.POA == nil || res.POA.POID != s.po.ID {
			t.Fatalf("submission %d: wrong correlation %+v", i, res.POA)
		}
	}
	if failed == 0 {
		t.Fatal("no candidate-armed exchange failed; the broken candidate never took traffic")
	}

	// 1. The canary settled on rollback and the incumbent is active again.
	if _, running := hub.ActiveCanary("TP1"); running {
		t.Fatal("canary still running after the full order stream resolved")
	}
	if got := c.Verdict(); got != cfgstore.CanaryRollback {
		t.Fatalf("canary verdict %s, want rollback", got)
	}
	if got, _ := hub.ConfigStore().Active(cfgstore.ClassBinding, core.BindingName(formats.EDI)); got != incumbentVersion {
		t.Fatalf("EDI binding active at v%d after rollback, want incumbent v%d", got, incumbentVersion)
	}
	cm := hub.Status().Config
	if cm.Canaries != 1 || cm.RolledBack != 1 || cm.Promoted != 0 {
		t.Fatalf("config gauges %+v, want exactly one canary, rolled back", cm)
	}

	// 2. The candidate's failures never opened TP1's circuit: the breaker
	// records no opens and every partner ends closed.
	for _, p := range hub.Snapshot().Model.Partners {
		if st := hub.Health().StateOf(p.ID); st != health.StateClosed {
			t.Fatalf("partner %s breaker %v after the canary incident, want closed", p.ID, st)
		}
	}
	for _, g := range hub.Status().Partners {
		if g.Opens > 0 || g.FastFails > 0 {
			t.Fatalf("partner %s breaker activity %+v during a config-only incident", g.Partner, g)
		}
	}

	// 3. Exactly-once accounting: candidate failures dead-lettered at the
	// binding stage, before any backend mutation; healing the faults and
	// resubmitting lands every order exactly once system-wide.
	dls := hub.DeadLetters()
	if len(dls) != failed {
		t.Fatalf("dead-letter queue holds %d entries, want %d failed exchanges", len(dls), failed)
	}
	for _, f := range faulties {
		f.SetSchedule(backend.FaultSchedule{})
	}
	for _, dl := range dls {
		if _, err := hub.Resubmit(ctx, dl.ExchangeID); err != nil {
			t.Fatalf("resubmit %s after rollback: %v", dl.ExchangeID, err)
		}
	}
	storedTotal := 0
	for _, f := range faulties {
		storedTotal += f.Inner().StoredOrders()
	}
	if storedTotal != len(subs) {
		t.Fatalf("backends hold %d orders after the rollback drain, want %d (each exactly once)", storedTotal, len(subs))
	}

	// 4. Post-rollback traffic runs entirely on the incumbent version.
	buyer := doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}
	for i := 0; i < 5; i++ {
		res, err := hub.Do(ctx, core.Request{Kind: core.DocPO, PO: gens["TP1"].PO(buyer, hubParty)})
		if err != nil {
			t.Fatalf("post-rollback order %d: %v", i, err)
		}
		if res.Exchange.CanaryArm() {
			t.Fatalf("post-rollback exchange %s still canary-armed", res.Exchange.ID)
		}
		if v := hub.StageVersions(res.Exchange)[obs.StageBinding]; v != incumbentVersion {
			t.Fatalf("post-rollback exchange ran binding v%d, want incumbent v%d", v, incumbentVersion)
		}
	}
	incOK, incFail, candOK, candFail := c.Samples()
	t.Logf("canary rolled back: incumbent %d ok / %d fail, candidate %d ok / %d fail; %d dead-lettered and replayed",
		incOK, incFail, candOK, candFail, failed)
}
