package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/health"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// callCounter counts the operations a back end runs for exchanges.
type callCounter struct {
	backend.System
	calls atomic.Int64
}

func (c *callCounter) Submit(ctx context.Context, wire []byte) error {
	c.calls.Add(1)
	return c.System.Submit(ctx, wire)
}

func (c *callCounter) Extract(ctx context.Context) ([]byte, bool, error) {
	c.calls.Add(1)
	return c.System.Extract(ctx)
}

func (c *callCounter) ExtractByPO(ctx context.Context, poID string) ([]byte, bool, error) {
	c.calls.Add(1)
	return c.System.ExtractByPO(ctx, poID)
}

func (c *callCounter) ExtractInvoiceByPO(ctx context.Context, poID string) ([]byte, bool, error) {
	c.calls.Add(1)
	return c.System.ExtractInvoiceByPO(ctx, poID)
}

func (c *callCounter) Process(ctx context.Context) (int, error) {
	c.calls.Add(1)
	return c.System.Process(ctx)
}

// TestBreakerFastFailAndResubmit covers the full degradation round trip
// deterministically on a manual clock: an open circuit fast-fails both Do
// and DoAsync with ErrPartnerUnavailable (dead-lettered, no worker, no
// retry attempts and no back-end call consumed), the first admission past
// ProbeInterval runs as a half-open probe whose success closes the
// circuit, and the parked dead letters then Resubmit cleanly.
func TestBreakerFastFailAndResubmit(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	clock := health.NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	h := newFig14Hub(t, WithShards(2), WithHealth(health.Config{
		Threshold:     0.5,
		MinSamples:    2,
		ProbeInterval: time.Minute,
		Now:           clock.Now,
	}))
	var sap *callCounter // TP1's back end
	h.WrapBackends(func(sys backend.System) backend.System {
		if sys.Name() != "SAP" {
			return sys
		}
		sap = &callCounter{System: sys}
		return sap
	})
	ctx := context.Background()
	g := doc.NewGenerator(7)

	// Trip TP1's breaker directly (two failures at MinSamples 2).
	br := h.Health().Breaker("TP1")
	br.Record(true)
	br.Record(true)
	if got := br.State(); got != health.StateOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}

	// DoAsync fast-fails: the future is already resolved, no worker ran.
	fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fut.Done():
	default:
		t.Fatal("fast-fail future not resolved at submission time")
	}
	res := fut.Result(ctx)
	if !errors.Is(res.Err, ErrPartnerUnavailable) {
		t.Fatalf("async fast-fail error = %v, want ErrPartnerUnavailable", res.Err)
	}
	var ee *ExchangeError
	if !errors.As(res.Err, &ee) || ee.Partner != "TP1" || ee.ExchangeID == "" {
		t.Fatalf("fast-fail error not a partner-attributed *ExchangeError: %v", res.Err)
	}

	// The synchronous path fast-fails identically.
	if _, err := h.Do(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)}); !errors.Is(err, ErrPartnerUnavailable) {
		t.Fatalf("sync fast-fail error = %v, want ErrPartnerUnavailable", err)
	}

	dls := h.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("dead letters = %d, want 2 (both fast-fails parked)", len(dls))
	}
	for _, dl := range dls {
		if dl.Partner != "TP1" || !errors.Is(dl.Reason, ErrPartnerUnavailable) {
			t.Fatalf("dead letter %+v, want TP1/ErrPartnerUnavailable", dl)
		}
	}
	c := h.Status().Exchanges
	if c.Started != 2 || c.Failed != 2 || c.DeadLettered != 2 || c.Retries != 0 {
		t.Fatalf("counters = %+v, want 2 started / 2 failed / 2 dead-lettered / 0 retries", c)
	}

	// A healthy partner is unaffected by TP1's open circuit.
	if _, _, err := roundTrip(h, ctx, g.PO(tp2, seller)); err != nil {
		t.Fatalf("healthy partner failed during TP1 outage: %v", err)
	}
	if n := sap.calls.Load(); n != 0 {
		t.Fatalf("SAP ran %d operations while TP1's circuit was open, want 0", n)
	}

	// Heal: past ProbeInterval the next admission is the probe; the
	// backend is healthy, so its success closes the circuit.
	clock.Advance(time.Minute)
	if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err != nil {
		t.Fatalf("probe exchange failed: %v", err)
	}
	if sap.calls.Load() == 0 {
		t.Fatal("the probe exchange made no SAP call")
	}
	if got := h.Health().StateOf("TP1"); got != health.StateClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}

	// The parked fast-fails replay exactly once each.
	for _, dl := range h.DeadLetters() {
		if _, err := h.Resubmit(ctx, dl.ExchangeID); err != nil {
			t.Fatalf("resubmit of %s failed after heal: %v", dl.ExchangeID, err)
		}
	}
	if n := len(h.DeadLetters()); n != 0 {
		t.Fatalf("dead-letter queue has %d entries after resubmission, want 0", n)
	}

	hm := h.Status().Partners
	if len(hm) != 1 || hm[0].Partner != "TP1" {
		t.Fatalf("health metrics = %+v, want one TP1 entry", hm)
	}
	if hm[0].FastFails != 2 || hm[0].Probes != 1 || hm[0].Opens != 1 || hm[0].Closes != 1 || hm[0].State != "closed" {
		t.Fatalf("TP1 gauges = %+v, want 2 fast-fails / 1 probe / 1 open / 1 close / closed", hm[0])
	}
}

// TestResubmitIsHealthGated pins the single rerun path for every flow: a
// dead letter parked by a pipeline failure reruns through the same health
// gate and breaker verdict as a fresh exchange. With the partner's circuit
// open after the failure, Resubmit fast-fails and re-parks the entry even
// though the backend has healed; once ProbeInterval has passed the rerun
// is itself the probe that closes the circuit, completing exactly once.
func TestResubmitIsHealthGated(t *testing.T) {
	g := doc.NewGenerator(23)
	rows := []struct {
		name string
		flow obs.Flow
		// request builds the row's submission; it may run a healthy
		// exchange first (the invoice row bills a fulfilled order).
		request func(t *testing.T, h *Hub) Request
		// opens reports whether the failed exchange's own outcome opens
		// the circuit. A wire PO without a partner hint is not gated at
		// admission (its partner is unknown until decode), so that row
		// trips the breaker directly; a failed invoice extraction is an
		// app-stage failure and opens it by itself.
		opens bool
	}{
		{"po", obs.FlowPO, func(t *testing.T, h *Hub) Request {
			return Request{Kind: DocPO, PO: g.PO(tp1, seller)}
		}, true},
		{"wire-po without partner hint", obs.FlowPO, func(t *testing.T, h *Hub) Request {
			return Request{Kind: DocWirePO, Protocol: formats.EDI, Wire: wirePO(t, h, formats.EDI, g.PO(tp1, seller))}
		}, false},
		{"invoice", obs.FlowInvoice, func(t *testing.T, h *Hub) Request {
			po := g.PO(tp1, seller)
			if _, _, err := roundTrip(h, context.Background(), po); err != nil {
				t.Fatalf("billed order: %v", err)
			}
			return Request{Kind: DocInvoice, PartnerID: tp1.ID, POID: po.ID}
		}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			clock := health.NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
			h := newFig14Hub(t, WithHealth(health.Config{
				MinSamples:    1,
				ProbeInterval: time.Minute,
				Now:           clock.Now,
			}))
			if _, err := h.EnableInvoicing(); err != nil {
				t.Fatal(err)
			}
			var sap *backend.Faulty
			h.WrapBackends(func(sys backend.System) backend.System {
				f := backend.NewFaulty(sys, backend.FaultSchedule{})
				if f.Name() == "SAP" {
					sap = f
				}
				return f
			})
			ctx := context.Background()
			req := row.request(t, h)

			// The exchange fails in the pipeline and TP1's circuit opens.
			sap.SetSchedule(backend.FaultSchedule{ErrProb: 1, Seed: 5})
			if _, err := h.Do(ctx, req); !errors.Is(err, backend.ErrInjected) {
				t.Fatalf("pipeline error = %v, want the injected backend fault", err)
			}
			if !row.opens {
				h.Health().Breaker("TP1").Record(true)
			}
			if got := h.Health().StateOf("TP1"); got != health.StateOpen {
				t.Fatalf("breaker after pipeline failure = %v, want open", got)
			}
			dls := h.DeadLetters()
			if len(dls) != 1 {
				t.Fatalf("dead letters = %d, want 1", len(dls))
			}
			if dls[0].req == nil || dls[0].req.PartnerID != "TP1" {
				t.Fatalf("parked request %+v, want one keyed to TP1", dls[0].req)
			}

			// Healed backend, circuit still open: the rerun fast-fails and
			// the entry is parked again.
			sap.SetSchedule(backend.FaultSchedule{})
			if _, err := h.Resubmit(ctx, dls[0].ExchangeID); !errors.Is(err, ErrPartnerUnavailable) {
				t.Fatalf("resubmit through open circuit = %v, want ErrPartnerUnavailable", err)
			}
			dls = h.DeadLetters()
			if len(dls) != 1 {
				t.Fatalf("dead letters after gated resubmit = %d, want 1 (re-parked)", len(dls))
			}

			// Past ProbeInterval the rerun is the probe: it completes and
			// closes the circuit.
			clock.Advance(time.Minute)
			if _, err := h.Resubmit(ctx, dls[0].ExchangeID); err != nil {
				t.Fatalf("probe resubmit: %v", err)
			}
			if got := h.Health().StateOf("TP1"); got != health.StateClosed {
				t.Fatalf("breaker after probe rerun = %v, want closed", got)
			}
			if n := len(h.DeadLetters()); n != 0 {
				t.Fatalf("dead letters after probe rerun = %d, want 0", n)
			}
			c := h.Status().Exchanges
			if done := c.ByFlow[row.flow] - c.Failed; done != 1 || c.Failed != 2 {
				t.Fatalf("%s exchanges completed=%d failed=%d, want 1 completed / 2 failed", row.flow, done, c.Failed)
			}
			if n := sap.Inner().StoredOrders(); n != 1 {
				t.Fatalf("backend stored %d orders, want 1", n)
			}
			ps := h.Status().Partners
			if len(ps) != 1 || ps[0].Opens != 1 || ps[0].FastFails != 1 || ps[0].Probes != 1 || ps[0].Closes != 1 {
				t.Fatalf("TP1 gauges %+v, want 1 open / 1 fast-fail / 1 probe / 1 close", ps)
			}
		})
	}
}

// TestShedNormalLaneBeforeHigh pins the shed ordering: with a degraded
// (but not yet open) partner whose home shard is saturated, a
// normal-priority submission is shed immediately while a high-priority one
// is still admitted to the queue.
func TestShedNormalLaneBeforeHigh(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h := newFig14Hub(t,
		WithShards(2), WithWorkersPerShard(1), WithQueueDepth(1),
		WithHealth(health.Config{Threshold: 0.8, MinSamples: 4}),
	)
	g := doc.NewGenerator(11)

	// Saturate TP2's home shard: a hung backend wedges the single worker
	// and the second submission fills the one-deep normal lane.
	hangBackend(h, "Oracle")
	cancel, wg := submitHung(h, tp2, 2)
	waitFor(t, func() bool {
		for _, sh := range h.Status().Sched.PerShard {
			if sh.Busy > 0 && sh.Queued > 0 {
				return true
			}
		}
		return false
	})

	// Put TP2 in the degraded-but-closed band: 1 failure / 2 samples = 0.5
	// >= Threshold/2 (0.4) with the circuit still closed (2 < MinSamples).
	br := h.Health().Breaker("TP2")
	br.Record(true)
	br.Record(false)
	if br.State() != health.StateClosed || !br.Degraded() {
		t.Fatalf("breaker state=%v degraded=%v, want closed+degraded", br.State(), br.Degraded())
	}

	// Normal priority: shed immediately — the future resolves without any
	// queue slot freeing up.
	ctx := context.Background()
	fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp2, seller)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fut.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("normal-priority submission for degraded partner not shed")
	}
	if res := fut.Result(ctx); !errors.Is(res.Err, ErrPartnerUnavailable) {
		t.Fatalf("shed error = %v, want ErrPartnerUnavailable", res.Err)
	}
	if n := len(h.DeadLetters()); n != 1 {
		t.Fatalf("dead letters after shed = %d, want 1", n)
	}

	// High priority: never shed — it lands in the (empty) high lane and
	// stays pending until the shard unwedges.
	hctx, hcancel := context.WithCancel(ctx)
	hfut, err := h.DoAsync(hctx, Request{Kind: DocPO, PO: g.PO(tp2, seller), Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hfut.Done():
		t.Fatalf("high-priority submission was shed: %v", hfut.Result(ctx).Err)
	case <-time.After(50 * time.Millisecond):
	}

	hm := h.Status().Partners
	if len(hm) != 1 || hm[0].Sheds != 1 || hm[0].FastFails != 0 {
		t.Fatalf("health metrics = %+v, want TP2 with exactly 1 shed", hm)
	}

	// Unwedge everything and shut down.
	hcancel()
	cancel()
	wg.Wait()
	hfut.Result(ctx)
}

// TestBreakerIgnoresPipelineFailures pins the attribution rule: failures
// that never reached the partner's endpoint — here a malformed wire
// document that dies at decode — feed neither the sliding window nor a
// probe verdict, so one client resubmitting a bad document cannot open a
// healthy partner's circuit and dead-letter its good traffic.
func TestBreakerIgnoresPipelineFailures(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h := newFig14Hub(t, WithHealth(health.Config{Threshold: 0.5, MinSamples: 2}))
	ctx := context.Background()

	bad := Request{Kind: DocWirePO, Protocol: formats.EDI, Wire: []byte("not an EDI document"), PartnerID: "TP1"}
	for i := 0; i < 6; i++ {
		if _, err := h.Do(ctx, bad); err == nil {
			t.Fatal("malformed wire document unexpectedly decoded")
		}
	}
	br := h.Health().Breaker("TP1")
	if got := br.State(); got != health.StateClosed {
		t.Fatalf("state after 6 malformed submissions = %v, want closed", got)
	}
	if st := br.Stats(); st.Samples != 0 {
		t.Fatalf("window samples = %d, want 0 (pipeline failures are not endpoint outcomes)", st.Samples)
	}
}

// TestEndpointFailureAttribution pins which errors count as the
// endpoint's: step/delivery-stage exchange errors do, everything that
// precedes or bypasses the pipeline's stages does not.
func TestEndpointFailureAttribution(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"app stage", &ExchangeError{Stage: obs.StageApp, Err: errors.New("backend fault")}, true},
		{"binding stage", &ExchangeError{Stage: obs.StageBinding, Err: errors.New("translate failed")}, true},
		{"wrapped private stage", fmt.Errorf("outer: %w", &ExchangeError{Stage: obs.StagePrivate, Err: errors.New("x")}), true},
		{"public stage", &ExchangeError{Stage: obs.StagePublic, Err: errors.New("deliver")}, true},
		{"exchange envelope", &ExchangeError{Stage: obs.StageExchange, Err: ErrNoOutbound}, false},
		{"route stage", &ExchangeError{Stage: obs.StageRoute, Err: errors.New("no such port")}, false},
		{"raw decode error", errors.New("core: inbound EDI PO: parse error"), false},
		{"unknown partner", fmt.Errorf("%w: %q", ErrUnknownPartner, "GHOST"), false},
	}
	for _, tc := range cases {
		if got := endpointFailure(tc.err); got != tc.want {
			t.Errorf("endpointFailure(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestProbeSlotReleasedOnCancellation guards the half-open budget against
// a probe whose outcome never arrives: the caller cancels the probe
// exchange mid-flight, and the slot must come back so the next admission
// is a fresh probe rather than a permanent rejection.
func TestProbeSlotReleasedOnCancellation(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	clock := health.NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	h := newFig14Hub(t, WithHealth(health.Config{
		Threshold: 0.5, MinSamples: 2, ProbeInterval: time.Minute, Now: clock.Now,
	}))
	g := doc.NewGenerator(23)

	hangBackend(h, "Oracle")
	br := h.Health().Breaker("TP2")
	br.Record(true)
	br.Record(true)
	clock.Advance(time.Minute)

	// The probe wedges against the hung backend; cancel the submission.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := h.Do(ctx, Request{Kind: DocPO, PO: g.PO(tp2, seller)})
		done <- err
	}()
	waitFor(t, func() bool { return h.Health().StateOf("TP2") == health.StateHalfOpen })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe error = %v, want context.Canceled", err)
	}
	// Do returned when ctx ended; the abandoned probe settles on its
	// worker, and draining the hub waits for it.
	if _, err := h.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// No verdict was recorded — the circuit is still half-open — but the
	// slot is free again for a replacement probe.
	if got := h.Health().StateOf("TP2"); got != health.StateHalfOpen {
		t.Fatalf("state after cancelled probe = %v, want half-open", got)
	}
	if probe, admitted := br.Allow(); !probe || !admitted {
		t.Fatalf("Allow after cancelled probe = (probe=%v, admitted=%v), want fresh probe", probe, admitted)
	}
	br.ReleaseProbe()
}

// TestProbeSlotReleasedOnStoppedScheduler: a stopped hub refuses a
// submission before the health gate, so a circuit due for a probe neither
// spends its probe slot nor fast-fails the request into a dead letter.
func TestProbeSlotReleasedOnStoppedScheduler(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	clock := health.NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	h := newFig14Hub(t, WithHealth(health.Config{
		Threshold: 0.5, MinSamples: 2, ProbeInterval: time.Minute, Now: clock.Now,
	}))
	// Close admission without ever starting the scheduler.
	if _, err := h.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	br := h.Health().Breaker("TP1")
	br.Record(true)
	br.Record(true)
	clock.Advance(time.Minute)

	g := doc.NewGenerator(29)
	if _, err := h.DoAsync(context.Background(), Request{Kind: DocPO, PO: g.PO(tp1, seller)}); !errors.Is(err, ErrHubStopped) {
		t.Fatalf("DoAsync on drained hub = %v, want ErrHubStopped", err)
	}
	if st := h.Status(); st.Exchanges.Started != 0 || st.DLQ.Depth != 0 {
		t.Fatalf("refused submission started %d exchanges and parked %d dead letters, want none",
			st.Exchanges.Started, st.DLQ.Depth)
	}
	// The breaker was not consulted: the circuit is still open, and its
	// first Allow admits the probe.
	if got := h.Health().StateOf("TP1"); got != health.StateOpen {
		t.Fatalf("state after refused submission = %v, want open", got)
	}
	if probe, admitted := br.Allow(); !probe || !admitted {
		t.Fatalf("Allow after refused submission = (probe=%v, admitted=%v), want fresh probe", probe, admitted)
	}
	br.ReleaseProbe()
}

// TestProbeSlotReleasedOnBackpressureRefusal covers the refusal that comes
// after the health gate: the breaker admits a probe, the submission waits
// for room on a full shard, its ctx ends, and the probe slot must be put
// back instead of leaking.
func TestProbeSlotReleasedOnBackpressureRefusal(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	clock := health.NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	h := newFig14Hub(t, WithShards(1), WithWorkersPerShard(1), WithQueueDepth(1), WithHealth(health.Config{
		Threshold: 0.5, MinSamples: 2, ProbeInterval: time.Minute, Now: clock.Now,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gate := gateSubmits(ctx, h, "Oracle", 0)
	g := doc.NewGenerator(31)

	// One TP2 order holds the one worker inside Oracle, the next fills the
	// one-slot lane.
	var futs []*Future
	for i := 0; i < 2; i++ {
		fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp2, seller)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
		waitFor(t, func() bool { return gate.maxInside() == 1 })
	}
	br := h.Health().Breaker("TP1")
	br.Record(true)
	br.Record(true)
	clock.Advance(time.Minute)

	pctx, pcancel := context.WithCancel(ctx)
	pcancel()
	if _, err := h.DoAsync(pctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe blocked on a full shard with an ended ctx = %v, want context.Canceled", err)
	}
	close(gate.open)
	for _, fut := range futs {
		if res := fut.Result(ctx); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if got := h.Health().StateOf("TP1"); got != health.StateHalfOpen {
		t.Fatalf("state after refused probe = %v, want half-open", got)
	}
	if probe, admitted := br.Allow(); !probe || !admitted {
		t.Fatalf("Allow after refused probe = (probe=%v, admitted=%v), want fresh probe", probe, admitted)
	}
	br.ReleaseProbe()
}

// waitFor polls cond with a bounded deadline — no fixed sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDrainSummaryKeepsDeadLetters covers graceful drain: admission stops
// for good, the backlog completes, and the dead-letter queue is left as it
// is — its entry still listed and counted in the summary — leaking nothing.
func TestDrainSummaryKeepsDeadLetters(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h := newFig14Hub(t, WithShards(2), WithWorkersPerShard(2),
		WithHealth(health.Config{Threshold: 0.5, MinSamples: 2, ProbeInterval: time.Hour}))
	ctx := context.Background()
	g := doc.NewGenerator(13)

	// One parked fast-fail, so the drain has a dead letter to keep.
	br := h.Health().Breaker("TP1")
	br.Record(true)
	br.Record(true)
	parked, err := h.Do(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
	if !errors.Is(err, ErrPartnerUnavailable) {
		t.Fatalf("setup fast-fail error = %v", err)
	}

	const n = 12
	futs := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp2, seller)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}

	sum, err := h.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, fut := range futs {
		if res := fut.Result(ctx); res.Err != nil {
			t.Fatalf("exchange %d did not complete through the drain: %v", i, res.Err)
		}
	}
	if sum.Completed != n || sum.Failed != 1 || sum.Shed != 0 || sum.DeadLettered != 1 {
		t.Fatalf("summary = %+v, want %d completed / 1 failed / 0 shed / 1 dead-lettered", sum, n)
	}
	if dls := h.DeadLetters(); len(dls) != 1 || dls[0].ExchangeID != parked.Exchange.ID {
		t.Fatalf("queue after drain = %+v, want the parked %s", dls, parked.Exchange.ID)
	}

	// The drained hub refuses new work, and StartScheduler does not
	// reopen it.
	if _, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp2, seller)}); !errors.Is(err, ErrHubStopped) {
		t.Fatalf("DoAsync after drain = %v, want ErrHubStopped", err)
	}
	h.StartScheduler()
	if _, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp2, seller)}); !errors.Is(err, ErrHubStopped) {
		t.Fatalf("DoAsync after drain and StartScheduler = %v, want ErrHubStopped", err)
	}
}

// TestDrainDeadlineExpiry pins Drain's contract under a wedged scheduler:
// it returns ctx.Err() with a partial summary and the hub stays closed.
// Every later Drain waits for the same shutdown: it returns ctx.Err()
// while the exchange still runs and nil only once the exchange has ended.
func TestDrainDeadlineExpiry(t *testing.T) {
	h := newFig14Hub(t, WithShards(1), WithWorkersPerShard(1))
	g := doc.NewGenerator(17)
	hangBackend(h, "Oracle")
	cancel, wg := submitHung(h, tp2, 1)
	defer wg.Wait()
	defer cancel()
	busy := func() int64 { return h.Status().Sched.PerShard[0].Busy }
	waitFor(t, func() bool { return len(h.Status().Sched.PerShard) > 0 && busy() > 0 })

	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	if _, err := h.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain on wedged scheduler = %v, want DeadlineExceeded", err)
	}
	// The hub is closed to new work even though the drain timed out.
	if _, err := h.DoAsync(context.Background(), Request{Kind: DocPO, PO: g.PO(tp1, seller)}); !errors.Is(err, ErrHubStopped) {
		t.Fatalf("DoAsync after timed-out drain = %v, want ErrHubStopped", err)
	}

	// A second Drain waits for the same shutdown, so its short ctx ends
	// first while the worker is still busy.
	dctx2, dcancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel2()
	if _, err := h.Drain(dctx2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Drain with %d busy worker(s) = %v, want DeadlineExceeded", busy(), err)
	}

	// A Drain returns nil only once the unwedged exchange has ended.
	drained := make(chan error, 1)
	go func() {
		_, err := h.Drain(context.Background())
		drained <- err
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with %d busy worker(s)", err, busy())
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if err := <-drained; err != nil {
		t.Fatalf("Drain after the exchange ended = %v, want nil", err)
	}
	if n, c := busy(), h.Status().Exchanges; n != 0 || c.ByFlow[obs.FlowPO] != 1 {
		t.Fatalf("Drain returned with %d busy worker(s) and %d ended exchanges, want 0 and 1", n, c.ByFlow[obs.FlowPO])
	}
}
