package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/obs"
)

// faultyHub builds a Figure 14 hub with every backend wrapped in a Faulty
// decorator under the given schedule, returning the wrappers by name.
func faultyHub(t *testing.T, s backend.FaultSchedule) (*Hub, map[string]*backend.Faulty) {
	t.Helper()
	h := newFig14Hub(t)
	wrapped := map[string]*backend.Faulty{}
	h.WrapBackends(func(sys backend.System) backend.System {
		f := backend.NewFaulty(sys, s)
		wrapped[f.Name()] = f
		return f
	})
	return h, wrapped
}

// TestRetryRecoversTransientFaults: with a generous retry budget, every
// exchange completes despite a high injected backend error rate, and the
// retries surface as typed attempt events in the counters.
func TestRetryRecoversTransientFaults(t *testing.T) {
	h, _ := faultyHub(t, backend.FaultSchedule{ErrProb: 0.4, Seed: 7})
	h.SetDefaultRetryPolicy(RetryPolicy{MaxAttempts: 25, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g := doc.NewGenerator(1)
	for i := 0; i < 20; i++ {
		po := g.PO(tp1, seller)
		poa, _, err := roundTrip(h, ctx, po)
		if err != nil {
			t.Fatalf("order %d: %v", i, err)
		}
		if poa.POID != po.ID {
			t.Fatalf("order %d: correlation %q != %q", i, poa.POID, po.ID)
		}
	}
	c := h.Status().Exchanges
	if c.Retries == 0 {
		t.Fatal("no retry events despite 40% injected error rate")
	}
	if c.Failed != 0 || c.DeadLettered != 0 {
		t.Fatalf("failed=%d deadLettered=%d, want 0/0", c.Failed, c.DeadLettered)
	}
}

// TestDeadLetterAndResubmit: an always-failing backend dead-letters the
// exchange; after the fault heals, resubmitting the dead letter completes
// it without double-storing the order.
func TestDeadLetterAndResubmit(t *testing.T) {
	h, wrapped := faultyHub(t, backend.FaultSchedule{ErrProb: 1, Seed: 3})
	h.SetDefaultRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g := doc.NewGenerator(2)
	po := g.PO(tp1, seller)
	_, ex, err := roundTrip(h, ctx, po)
	if err == nil {
		t.Fatal("round trip succeeded against an always-failing backend")
	}
	if !errors.Is(err, backend.ErrInjected) {
		t.Fatalf("terminal error %v does not wrap the injected fault", err)
	}

	dls := h.DeadLetters()
	if len(dls) != 1 {
		t.Fatalf("dead letters: %d, want 1", len(dls))
	}
	dl := dls[0]
	if dl.ExchangeID != ex.ID || dl.Partner != tp1.ID || dl.Flow != obs.FlowPO {
		t.Fatalf("dead letter %+v does not match exchange %s", dl, ex.ID)
	}
	if dl.Reason == nil {
		t.Fatal("dead letter has no reason")
	}
	// The terminal event stream records the dead-lettering.
	var sawDL bool
	for _, e := range h.Events(ex.ID) {
		if e.Kind == obs.KindExchange && e.Step == obs.StepDeadLetter {
			sawDL = true
		}
	}
	if !sawDL {
		t.Fatal("no dead-letter event in the exchange's stream")
	}
	c := h.Status().Exchanges
	if c.DeadLettered != 1 || c.Failed != 1 {
		t.Fatalf("counters deadLettered=%d failed=%d, want 1/1", c.DeadLettered, c.Failed)
	}
	// The failed attempts never mutated the backend.
	if n := wrapped["SAP"].Inner().StoredOrders(); n != 0 {
		t.Fatalf("backend stored %d orders during injected failures", n)
	}

	// Heal and resubmit: the dead letter replays to completion and leaves
	// the queue.
	wrapped["SAP"].SetSchedule(backend.FaultSchedule{})
	ex2, err := h.Resubmit(ctx, dl.ExchangeID)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if n := len(h.DeadLetters()); n != 0 {
		t.Fatalf("queue holds %d entries after the rerun, want 0", n)
	}
	if ex2.ID == ex.ID {
		t.Fatal("resubmission reused the dead exchange ID")
	}
	if n := wrapped["SAP"].Inner().StoredOrders(); n != 1 {
		t.Fatalf("backend stored %d orders after resubmit, want 1", n)
	}
}

// TestResubmitToleratesStoredOrder: when a dead-lettered exchange already
// stored its order, the replay must not double-store — the backend's
// duplicate elimination satisfies the store step instead.
func TestResubmitToleratesStoredOrder(t *testing.T) {
	h := newFig14Hub(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g := doc.NewGenerator(4)
	po := g.PO(tp2, seller)

	// Pre-store the order directly, simulating a first run that died after
	// its store step.
	native, err := h.reg.FromNormalized(formats.OracleOIF, doc.TypePO, po)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := h.codecs.Lookup(formats.OracleOIF, doc.TypePO)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := codec.Encode(native)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Systems["Oracle"].Submit(ctx, wire); err != nil {
		t.Fatal(err)
	}

	// A fresh run of the same order dies at the store step on the
	// duplicate rejection (not transient, so no retry) and dead-letters.
	_, _, err = roundTrip(h, ctx, po)
	if !errors.Is(err, backend.ErrDuplicateOrder) {
		t.Fatalf("round trip error %v, want duplicate-order rejection", err)
	}
	dls := h.DeadLetters()
	if len(dls) != 1 {
		t.Fatalf("dead letters: %d, want 1", len(dls))
	}

	// The replay tolerates the duplicate, processes the stored copy and
	// completes; the backend still holds exactly one copy.
	ex, err := h.Resubmit(ctx, dls[0].ExchangeID)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if ex.Outbound == nil {
		t.Fatal("resubmitted exchange produced no outbound document")
	}
	if got := h.Systems["Oracle"].StoredOrders(); got != 1 {
		t.Fatalf("stored %d copies, want 1", got)
	}
}

// TestPerAttemptTimeoutUnsticksHangs: a hang-prone backend is unstuck by
// the per-attempt timeout and the exchange still completes within its
// retry budget.
func TestPerAttemptTimeoutUnsticksHangs(t *testing.T) {
	h, _ := faultyHub(t, backend.FaultSchedule{HangProb: 0.5, Seed: 11})
	h.SetRetryPolicy("SAP", RetryPolicy{
		MaxAttempts: 10, BaseBackoff: time.Millisecond,
		PerAttemptTimeout: 30 * time.Millisecond,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g := doc.NewGenerator(6)
	for i := 0; i < 5; i++ {
		po := g.PO(tp1, seller)
		if _, _, err := roundTrip(h, ctx, po); err != nil {
			t.Fatalf("order %d: %v", i, err)
		}
	}
	if c := h.Status().Exchanges; c.Retries == 0 {
		t.Fatal("no retries recorded despite 50% hang probability")
	}
}

// TestRetryEventsInTrace: attempt and backoff events appear in the
// exchange's retained event stream, attributed to the app stage.
func TestRetryEventsInTrace(t *testing.T) {
	h, _ := faultyHub(t, backend.FaultSchedule{ErrProb: 0.3, Seed: 13})
	h.SetDefaultRetryPolicy(RetryPolicy{MaxAttempts: 20, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g := doc.NewGenerator(8)
	var attempts, backoffs int
	for i := 0; i < 10; i++ {
		po := g.PO(tp1, seller)
		_, ex, err := roundTrip(h, ctx, po)
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		for _, e := range h.Events(ex.ID) {
			if e.Kind != obs.KindRetry {
				continue
			}
			if e.Stage != obs.StageApp {
				t.Fatalf("retry event in stage %s, want app", e.Stage)
			}
			switch e.Step {
			case obs.StepAttempt:
				if e.Err == nil {
					t.Fatal("attempt event carries no error")
				}
				attempts++
			case obs.StepBackoff:
				if e.Elapsed <= 0 {
					t.Fatal("backoff event carries no duration")
				}
				backoffs++
			}
		}
	}
	if attempts == 0 || attempts != backoffs {
		t.Fatalf("attempt/backoff events %d/%d, want equal and positive", attempts, backoffs)
	}
}

// TestBackoffFor: the exponential schedule doubles from the base and caps.
func TestBackoffFor(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 35 * time.Millisecond}
	want := []time.Duration{10, 20, 35, 35}
	for i, w := range want {
		if got := p.BackoffFor(i + 1); got != w*time.Millisecond {
			t.Fatalf("BackoffFor(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if got := (RetryPolicy{}).BackoffFor(3); got != 0 {
		t.Fatalf("zero policy backoff %v, want 0", got)
	}
}
