package core

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/health"
	"repro/internal/leakcheck"
	"repro/internal/msg"
	"repro/internal/obs"
)

// schedTally counts the hub's scheduler events by step.
type schedTally struct {
	mu    sync.Mutex
	steps map[string]int
}

func tallySched(h *Hub) *schedTally {
	st := &schedTally{steps: map[string]int{}}
	h.Bus().Attach(st)
	return st
}

func (st *schedTally) Emit(e obs.Event) {
	if e.Kind != obs.KindSched {
		return
	}
	st.mu.Lock()
	st.steps[e.Step]++
	st.mu.Unlock()
}

// take returns the counts since the last take and starts over.
func (st *schedTally) take() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.steps
	st.steps = map[string]int{}
	return out
}

// completedJobs sums the shard gauges' completed counts.
func completedJobs(h *Hub) int64 {
	var n int64
	for _, sh := range h.Status().Sched.PerShard {
		n += sh.Completed
	}
	return n
}

// TestEveryEntryRunsOnTheScheduler: each way an exchange enters the hub
// runs it as one scheduler job — one enqueued→dispatched→completed triple
// and one more completed job on the shard gauges — and after Drain each is
// refused with ErrHubStopped without a new exchange record or a back-end
// call, also for a partner whose circuit is open; a refused Resubmit puts
// its entry back on the queue once. The daemon's OpSubmit row lives in
// internal/server.
func TestEveryEntryRunsOnTheScheduler(t *testing.T) {
	ctx := context.Background()
	rows := []struct {
		name string
		opts []HubOption
		// setup prepares the entry on a fresh hub and returns it: entry
		// drives one exchange through the entry point, before the drain
		// (drained nil) and after it.
		setup func(t *testing.T, h *Hub, g *doc.Generator) (entry func(drained *DrainSummary) error)
	}{
		{"Do", nil, func(t *testing.T, h *Hub, g *doc.Generator) func(*DrainSummary) error {
			return func(*DrainSummary) error {
				_, err := h.Do(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
				return err
			}
		}},
		{"Do-open-circuit", []HubOption{WithHealth(health.Config{Threshold: 0.5, MinSamples: 2, ProbeInterval: time.Hour})},
			func(t *testing.T, h *Hub, g *doc.Generator) func(*DrainSummary) error {
				return func(drained *DrainSummary) error {
					if drained == nil {
						_, err := h.Do(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
						return err
					}
					// The refusal comes before the health gate, which
					// would fast-fail the order into a new dead letter.
					br := h.Health().Breaker("TP1")
					br.Record(true)
					br.Record(true)
					if got := h.Health().StateOf("TP1"); got != health.StateOpen {
						t.Fatalf("TP1 circuit %v, want open", got)
					}
					_, err := h.Do(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
					if n := len(h.DeadLetters()); n != 0 {
						t.Errorf("refused Do left %d dead letters, want none", n)
					}
					return err
				}
			}},
		{"DoAsync", nil, func(t *testing.T, h *Hub, g *doc.Generator) func(*DrainSummary) error {
			return func(*DrainSummary) error {
				fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
				if err != nil {
					return err
				}
				return fut.Result(ctx).Err
			}
		}},
		{"Resubmit", nil, func(t *testing.T, h *Hub, g *doc.Generator) func(*DrainSummary) error {
			// Two dead letters from a hard-down SAP: one to rerun live,
			// one to rerun after the drain, which keeps it queued.
			var faulty *backend.Faulty
			h.WrapBackends(func(sys backend.System) backend.System {
				if sys.Name() != "SAP" {
					return sys
				}
				faulty = backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 1, Seed: 5})
				return faulty
			})
			h.SetDefaultRetryPolicy(RetryPolicy{MaxAttempts: 1})
			for i := 0; i < 2; i++ {
				if _, err := h.Do(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)}); err == nil {
					t.Fatal("order against a hard-down SAP succeeded")
				}
			}
			faulty.SetSchedule(backend.FaultSchedule{})
			dls := h.DeadLetters()
			if len(dls) != 2 {
				t.Fatalf("%d dead letters, want 2", len(dls))
			}
			return func(drained *DrainSummary) error {
				if drained == nil {
					_, err := h.Resubmit(ctx, dls[0].ExchangeID)
					return err
				}
				if drained.DeadLettered != 1 {
					t.Fatalf("drain summary counts %d dead letters, want 1", drained.DeadLettered)
				}
				id := dls[1].ExchangeID
				_, err := h.Resubmit(ctx, id)
				// A second refusal must not park the entry twice.
				if _, err := h.Resubmit(ctx, id); !errors.Is(err, ErrHubStopped) {
					t.Errorf("second rerun of %s after Drain: %v, want ErrHubStopped", id, err)
				}
				if back := h.DeadLetters(); len(back) != 1 || back[0].ExchangeID != id {
					t.Errorf("queue after refused reruns holds %d entries, want %s once", len(back), id)
				}
				return err
			}
		}},
		{"Server.Serve", nil, func(t *testing.T, h *Hub, g *doc.Generator) func(*DrainSummary) error {
			network := msg.NewInProcNetwork(msg.Faults{})
			hubEP, err := network.Endpoint("hub")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(h, hubEP)
			sctx, cancel := context.WithCancel(ctx)
			errs := make(chan error, 1)
			served := make(chan struct{})
			go func() {
				defer close(served)
				srv.Serve(sctx, errs)
			}()
			partner, _ := h.Snapshot().Model.PartnerByID(tp1.ID)
			ep, err := network.Endpoint(tp1.ID)
			if err != nil {
				t.Fatal(err)
			}
			client := NewClient(partner, ep, msg.ReliableConfig{}, "hub")
			t.Cleanup(func() {
				client.Close()
				cancel()
				<-served
				srv.Close()
				network.Close()
			})
			return func(drained *DrainSummary) error {
				po := g.PO(tp1, seller)
				if drained == nil {
					_, err := client.RoundTrip(sctx, po)
					return err
				}
				if err := client.rel.Send(sctx, "hub", &msg.Message{
					CorrelationID: po.ID, Protocol: string(formats.EDI),
					DocType: string(doc.TypePO), Body: wirePO(t, h, formats.EDI, po),
				}); err != nil {
					return err
				}
				select {
				case err := <-errs:
					return err
				case <-time.After(10 * time.Second):
					return errors.New("Serve reported nothing for an order sent after the drain")
				}
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Cleanup(leakcheck.Check(t))
			h := newFig14Hub(t, append([]HubOption{WithShards(2)}, row.opts...)...)
			g := doc.NewGenerator(71)
			entry := row.setup(t, h, g)
			sap := &callCounter{}
			h.WrapBackends(func(sys backend.System) backend.System {
				if sys.Name() != "SAP" {
					return sys
				}
				sap.System = sys
				return sap
			})
			tally := tallySched(h)

			started, jobs := h.Status().Exchanges.Started, completedJobs(h)
			if err := entry(nil); err != nil {
				t.Fatal(err)
			}
			steps := tally.take()
			if steps[obs.StepEnqueued]+steps[obs.StepBypassed] != 1 || steps[obs.StepDispatched] != 1 || steps[obs.StepCompleted] != 1 {
				t.Fatalf("sched events %v, want one enqueued→dispatched→completed triple", steps)
			}
			if got := completedJobs(h) - jobs; got != 1 {
				t.Fatalf("shard gauges count %d more completed jobs, want 1", got)
			}
			if got := h.Status().Exchanges.Started - started; got != 1 {
				t.Fatalf("%d exchanges started, want 1", got)
			}

			sum, err := h.Drain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			tally.take()
			started, calls := h.Status().Exchanges.Started, sap.calls.Load()
			if err := entry(&sum); !errors.Is(err, ErrHubStopped) {
				t.Fatalf("%s after Drain: %v, want ErrHubStopped", row.name, err)
			}
			if got := h.Status().Exchanges.Started; got != started {
				t.Fatalf("%s after Drain started %d exchanges, want none", row.name, got-started)
			}
			if got := sap.calls.Load(); got != calls {
				t.Fatalf("%s after Drain made %d back-end calls, want none", row.name, got-calls)
			}
			if steps := tally.take(); len(steps) != 0 {
				t.Fatalf("%s after Drain emitted sched events %v", row.name, steps)
			}
		})
	}
}

// TestDrainWaitsForDo: Drain stops admission and waits for a Do held inside
// SAP, which completes and counts in the summary's Completed.
func TestDrainWaitsForDo(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h := newFig14Hub(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gate := gateSubmits(ctx, h, "SAP", 0)
	po := doc.NewGenerator(73).PO(tp1, seller)

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := h.Do(ctx, Request{Kind: DocPO, PO: po})
		done <- outcome{res, err}
	}()
	waitFor(t, func() bool { return gate.maxInside() == 1 })

	type drainOutcome struct {
		sum DrainSummary
		err error
	}
	drained := make(chan drainOutcome, 1)
	go func() {
		sum, err := h.Drain(ctx)
		drained <- drainOutcome{sum, err}
	}()
	waitFor(t, func() bool { return !h.Status().Sched.Running })
	select {
	case d := <-drained:
		t.Fatalf("Drain returned (%+v, %v) while a Do was inside SAP", d.sum, d.err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate.open)
	d := <-drained
	if d.err != nil {
		t.Fatal(d.err)
	}
	if d.sum.Completed != 1 || d.sum.Failed != 0 {
		t.Fatalf("drain summary %+v, want the held Do completed", d.sum)
	}
	o := <-done
	if o.err != nil || o.res.POA == nil || o.res.POA.POID != po.ID {
		t.Fatalf("held Do = (%+v, %v), want the POA of %s", o.res, o.err, po.ID)
	}
	if got := h.Systems["SAP"].StoredOrders(); got != 1 {
		t.Fatalf("SAP stored %d orders, want 1", got)
	}
}

// TestRefusedAdmissionStaysRefusedAfterRestart: an admission the scheduler
// refuses is journaled as aborted, so a restarted hub does not run what its
// caller was told was refused. Rows: a drained hub's ErrHubStopped, and ctx
// ending while the submission waits for room on a full queue.
func TestRefusedAdmissionStaysRefusedAfterRestart(t *testing.T) {
	ctx := context.Background()
	rows := []struct {
		name string
		// refuse submits one order the scheduler refuses and returns how
		// many orders the hub's SAP stored and the refusal.
		refuse func(t *testing.T, h *Hub, g *doc.Generator) (stored int, err error)
		want   error
	}{
		{"stopped", func(t *testing.T, h *Hub, g *doc.Generator) (int, error) {
			if _, err := h.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			_, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
			return 0, err
		}, ErrHubStopped},
		{"backpressure", func(t *testing.T, h *Hub, g *doc.Generator) (int, error) {
			// A failed row's cancel frees the held exchange for the cleanup.
			rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			gate := gateSubmits(rctx, h, "SAP", 0)
			running, err := h.DoAsync(rctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return gate.maxInside() == 1 })
			queued, err := h.DoAsync(rctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
			if err != nil {
				t.Fatal(err)
			}
			// The one worker is inside SAP and the one-slot lane is full:
			// the submission blocks, and its ended ctx refuses it.
			cctx, cancelC := context.WithCancel(rctx)
			cancelC()
			_, refusal := h.DoAsync(cctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
			close(gate.open)
			for _, fut := range []*Future{running, queued} {
				if res := fut.Result(rctx); res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			return 2, refusal
		}, context.Canceled},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Cleanup(leakcheck.Check(t))
			path := filepath.Join(t.TempDir(), "hub.wal")
			h := journaledHub(t, path, WithShards(1), WithWorkersPerShard(1), WithQueueDepth(1))
			stored, err := row.refuse(t, h, doc.NewGenerator(79))
			if !errors.Is(err, row.want) {
				t.Fatalf("refused admission: %v, want %v", err, row.want)
			}
			if got := h.Systems["SAP"].StoredOrders(); got != stored {
				t.Fatalf("SAP stored %d orders, want %d", got, stored)
			}
			if js := h.Status().Journal; js.PendingAdmits != 0 {
				t.Fatalf("journal holds %d pending admits after the refusal, want 0", js.PendingAdmits)
			}
			if _, err := h.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if err := h.CloseJournal(); err != nil {
				t.Fatal(err)
			}

			h2 := journaledHub(t, path)
			t.Cleanup(func() { h2.CloseJournal() })
			rep, err := h2.Recover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reenqueued != 0 || rep.Restored != stored {
				t.Fatalf("recovery %+v, want %d restored and nothing re-run", rep, stored)
			}
			if got := h2.Systems["SAP"].StoredOrders(); got != 0 {
				t.Fatalf("restarted hub's SAP stored %d orders, want 0", got)
			}
		})
	}
}
