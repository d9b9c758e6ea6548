package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/doc"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/wf"
)

// poRouteHops is the number of routing hops of a complete inbound PO
// exchange (public process started, public→binding, binding→private,
// private→app, app→private, private→binding, binding→public,
// public→network); invRouteHops the hops of a complete invoice exchange.
const (
	poRouteHops  = 8
	invRouteHops = 5
)

// TestSubmitStress drives N parallel Hub.DoAsync round trips across all
// three protocols with a mixed invoice load and reconciles the per-partner
// stats and per-exchange event counts exactly. The hub runs the sharded
// scheduler (4 shards x 2 workers). Run with -race.
func TestSubmitStress(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h := newFig14Hub(t, WithShards(4), WithWorkersPerShard(2))
	if _, err := h.AddPartner(Figure15Partner()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.EnableInvoicing(); err != nil {
		t.Fatal(err)
	}

	const (
		workersPerPartner = 2
		ordersPerWorker   = 10
	)
	parties := []doc.Party{tp1, tp2, tp3}
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, len(parties)*workersPerPartner)
	for pi, party := range parties {
		for w := 0; w < workersPerPartner; w++ {
			wg.Add(1)
			go func(pi int, party doc.Party, w int) {
				defer wg.Done()
				g := doc.NewGenerator(int64(100*pi + w))
				for i := 0; i < ordersPerWorker; i++ {
					po := g.PO(party, seller)
					po.ID = fmt.Sprintf("%s-p%d-w%d-%d", po.ID, pi, w, i)
					fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: po})
					if err != nil {
						errCh <- err
						return
					}
					res := fut.Result(ctx)
					if res.Err != nil {
						errCh <- fmt.Errorf("%s order %d: %w", party.ID, i, res.Err)
						return
					}
					if res.POA == nil || res.POA.POID != po.ID {
						errCh <- fmt.Errorf("%s order %d: wrong acknowledgment %+v", party.ID, i, res.POA)
						return
					}
					// Every completed order is billed: push the invoice
					// through the pool as well.
					ifut, err := h.DoAsync(ctx, Request{Kind: DocInvoice, PartnerID: party.ID, POID: po.ID})
					if err != nil {
						errCh <- err
						return
					}
					if ires := ifut.Result(ctx); ires.Err != nil {
						errCh <- fmt.Errorf("%s invoice %d: %w", party.ID, i, ires.Err)
						return
					}
				}
			}(pi, party, w)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	perPartner := workersPerPartner * ordersPerWorker
	totalPOs := len(parties) * perPartner

	// Counters reconcile exactly: every PO and every invoice exchange
	// landed, nothing failed, and the per-partner counts add up.
	cs := h.Status().Exchanges
	if cs.ByFlow[obs.FlowPO] != int64(totalPOs) || cs.ByFlow[obs.FlowInvoice] != int64(totalPOs) || cs.Failed != 0 {
		t.Fatalf("exchange counters %+v, want %d/%d/0", cs, totalPOs, totalPOs)
	}
	for _, party := range parties {
		if cs.ByPartner[party.ID] != int64(2*perPartner) {
			t.Fatalf("partner %s count %d, want %d", party.ID, cs.ByPartner[party.ID], 2*perPartner)
		}
	}
	if cs.Started != int64(2*totalPOs) {
		t.Fatalf("started %d, want %d", cs.Started, 2*totalPOs)
	}

	// Event counts reconcile exactly per exchange: two lifecycle events and
	// the full hop count for the exchange's flow.
	for i := 1; i <= 2*totalPOs; i++ {
		exID := fmt.Sprintf("ex-%06d", i)
		ex, ok := h.ExchangeByID(exID)
		if !ok {
			t.Fatalf("exchange %s missing", exID)
		}
		var lifecycle, routes int
		for _, e := range h.Events(exID) {
			switch e.Kind {
			case obs.KindExchange:
				lifecycle++
				if e.Partner != ex.Partner.ID || e.Flow != ex.Flow {
					t.Fatalf("%s: lifecycle event attribution %+v", exID, e)
				}
			case obs.KindRoute:
				routes++
			}
		}
		if lifecycle != 2 {
			t.Fatalf("%s: %d lifecycle events", exID, lifecycle)
		}
		want := poRouteHops
		if ex.Flow == obs.FlowInvoice {
			want = invRouteHops
		}
		if routes != want {
			t.Fatalf("%s (%s): %d route events, want %d\n%v", exID, ex.Flow, routes, want, h.Trace(exID))
		}
	}

	// The back ends stored exactly the submitted orders.
	stored := 0
	for _, sys := range h.Systems {
		stored += sys.StoredOrders()
	}
	if stored != totalPOs {
		t.Fatalf("backends stored %d, want %d", stored, totalPOs)
	}
}

// TestSubmitCancellationAbortsPipeline cancels the submission context from
// inside the private process (the approval step) and verifies the exchange
// aborts mid-pipeline: the backend is never touched, the pipeline error is
// the context error, and the exchange is counted as failed.
func TestSubmitCancellationAbortsPipeline(t *testing.T) {
	h := newFig14Hub(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The approval step (needsApproval == true for this order) pulls the
	// plug mid-pipeline: the next step is "To application", so a correct
	// abort leaves the backend untouched.
	h.handlerReg.Register("approve", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		in.Data["approved"] = true
		cancel()
		return nil
	})

	g := doc.NewGenerator(7)
	po := g.POWithAmount(tp1, seller, 100000) // above TP1's 55000 threshold
	fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: po})
	if err != nil {
		t.Fatal(err)
	}
	res := fut.Result(context.Background())
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", res.Err)
	}
	if res.Exchange == nil {
		t.Fatal("no exchange record")
	}
	// No backend mutation after cancellation.
	if got := h.Systems["SAP"].StoredOrders(); got != 0 {
		t.Fatalf("backend stored %d orders after cancellation", got)
	}
	// The exchange is counted failed and its terminal event carries the
	// context error.
	if c := h.Status().Exchanges; c.Failed != 1 || c.ByFlow[obs.FlowPO] != 1 {
		t.Fatalf("exchange counters %+v", c)
	}
	var terminal *obs.Event
	for _, e := range h.Events(res.Exchange.ID) {
		if e.Kind == obs.KindExchange && e.Step == "failed" {
			e := e
			terminal = &e
		}
	}
	if terminal == nil || !errors.Is(terminal.Err, context.Canceled) {
		t.Fatalf("terminal event %+v", terminal)
	}
}

// TestRequestValidation pins the Request normalization rules.
func TestRequestValidation(t *testing.T) {
	h := newFig14Hub(t)
	ctx := context.Background()
	for _, req := range []Request{
		{},                               // nothing to infer
		{Kind: DocPO},                    // missing PO
		{Kind: DocWirePO},                // missing protocol+wire
		{Kind: DocInvoice},               // missing partner+poid
		{Kind: DocKind("bogus")},         // unknown kind
		{Kind: DocInvoice, POID: "PO-1"}, // missing partner
	} {
		if _, err := h.Do(ctx, req); !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("req %+v: err %v, want ErrInvalidRequest", req, err)
		}
	}
	// Kind inference from the populated field.
	g := doc.NewGenerator(3)
	res, err := h.Do(ctx, Request{PO: g.PO(tp1, seller)})
	if err != nil {
		t.Fatal(err)
	}
	if res.POA == nil {
		t.Fatal("inferred DocPO returned no POA")
	}
}
