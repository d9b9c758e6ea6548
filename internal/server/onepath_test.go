package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

var tp2 = doc.Party{ID: "TP2", Name: "Trading Partner 2", DUNS: "222222222"}

// gatedBackend holds every Submit of the back end it wraps until open
// closes (or the call's ctx ends); inside counts the calls it holds.
type gatedBackend struct {
	backend.System
	inside atomic.Int64
	open   chan struct{}
}

// gateSubmits wraps the hub's named back end in a gatedBackend.
func gateSubmits(h *core.Hub, name string) *gatedBackend {
	gate := &gatedBackend{open: make(chan struct{})}
	h.WrapBackends(func(sys backend.System) backend.System {
		if sys.Name() != name {
			return sys
		}
		gate.System = sys
		return gate
	})
	return gate
}

func (g *gatedBackend) Submit(ctx context.Context, wire []byte) error {
	g.inside.Add(1)
	defer g.inside.Add(-1)
	select {
	case <-g.open:
		return g.System.Submit(ctx, wire)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestEveryEntryRunsOnTheScheduler holds the daemon row of the core test
// of the same name: OpSubmit runs its exchange as one scheduler job — three
// sched events (enqueued, dispatched, completed) and one more completed job
// on the shard gauge — and after a drain it is refused with ErrHubStopped
// without a new exchange record. A submit that sets the retired Async
// field still decodes and runs the same way.
func TestEveryEntryRunsOnTheScheduler(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h, _, c := newDaemon(t)
	ctx := context.Background()
	g := doc.NewGenerator(83)
	var schedEvents atomic.Int64
	h.Bus().Attach(obs.FuncSink(func(e obs.Event) {
		if e.Kind == obs.KindSched {
			schedEvents.Add(1)
		}
	}))
	submit := func(async bool) error {
		req, err := PORequest(g.PO(tp1, seller))
		if err != nil {
			t.Fatal(err)
		}
		req.Async = async
		_, err = c.Submit(ctx, req)
		return err
	}

	for i, async := range []bool{false, true} {
		if err := submit(async); err != nil {
			t.Fatalf("submit (async=%v): %v", async, err)
		}
		if got := schedEvents.Swap(0); got != 3 {
			t.Fatalf("submit (async=%v) emitted %d sched events, want 3", async, got)
		}
		if got := h.Status().Sched.PerShard[0].Completed; got != int64(i+1) {
			t.Fatalf("shard gauge counts %d completed jobs, want %d", got, i+1)
		}
	}

	if _, err := c.Drain(ctx, 5000); err != nil {
		t.Fatal(err)
	}
	schedEvents.Store(0)
	started := h.Status().Exchanges.Started
	if err := submit(false); !errors.Is(err, core.ErrHubStopped) {
		t.Fatalf("submit after drain: %v, want ErrHubStopped", err)
	}
	if got := h.Status().Exchanges.Started; got != started {
		t.Fatalf("submit after drain started %d exchanges, want none", got-started)
	}
	if got := schedEvents.Load(); got != 0 {
		t.Fatalf("submit after drain emitted %d sched events", got)
	}
}

// submitAll sends one non-async submit per order from its own goroutine
// and returns the channel their errors arrive on. The exchange timeout
// unwedges a held back end should the test fail before releasing it.
func submitAll(t *testing.T, c *Client, pos []*doc.PurchaseOrder) <-chan error {
	t.Helper()
	errs := make(chan error, len(pos))
	for _, po := range pos {
		req, err := PORequest(po)
		if err != nil {
			t.Fatal(err)
		}
		req.TimeoutMS = 10000
		go func() {
			_, err := c.Submit(context.Background(), req)
			errs <- err
		}()
	}
	return errs
}

// TestDaemonSubmitsOverlapWorkers: a daemon on the hub's default scheduler
// — one shard of core.DefaultWorkers workers, what b2bhub -serve runs
// without -shards or -workers — keeps that many non-async submits in
// flight at once. SAP holds every Submit until all of them are inside it,
// so they complete only when the hub overlaps them.
func TestDaemonSubmitsOverlapWorkers(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h, _, c := newDaemon(t)
	gate := gateSubmits(h, "SAP")
	g := doc.NewGenerator(97)
	var pos []*doc.PurchaseOrder
	for i := 0; i < core.DefaultWorkers; i++ {
		pos = append(pos, g.PO(tp1, seller))
	}
	errs := submitAll(t, c, pos)
	waitCond(t, 5*time.Second, fmt.Sprintf("%d submits inside SAP", len(pos)), func() bool {
		return gate.inside.Load() == int64(len(pos))
	})
	close(gate.open)
	for range pos {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Systems["SAP"].StoredOrders(); got != len(pos) {
		t.Fatalf("SAP stored %d orders, want %d", got, len(pos))
	}
}

// TestDaemonHungPartnerIsolation: on the default scheduler, a partner
// with fewer hung exchanges than the shard has workers leaves the other
// partners served. core.DefaultWorkers-1 TP2 submits hang inside Oracle,
// and TP1 submits still complete on the free worker.
func TestDaemonHungPartnerIsolation(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h, _, c := newDaemon(t)
	gate := gateSubmits(h, "Oracle")
	g := doc.NewGenerator(101)
	var hung []*doc.PurchaseOrder
	for i := 0; i < core.DefaultWorkers-1; i++ {
		hung = append(hung, g.PO(tp2, seller))
	}
	errs := submitAll(t, c, hung)
	waitCond(t, 5*time.Second, fmt.Sprintf("%d TP2 submits inside Oracle", len(hung)), func() bool {
		return gate.inside.Load() == int64(len(hung))
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		req, err := PORequest(g.PO(tp1, seller))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(ctx, req); err != nil {
			t.Fatalf("TP1 submit beside %d hung TP2 exchanges: %v", len(hung), err)
		}
	}
	close(gate.open)
	for range hung {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainAndCloseAnswersHeldSubmit: a graceful shutdown answers what it
// drained. DrainAndClose waits for a submit held inside SAP, counts it as
// completed, and its client receives the POA before the connection closes
// — a connection-lost error would invite a retry of an order the back end
// already stored.
func TestDrainAndCloseAnswersHeldSubmit(t *testing.T) {
	for _, row := range []struct {
		name  string
		async bool
	}{{"OpSubmit", false}, {"OpSubmit-async", true}} {
		t.Run(row.name, func(t *testing.T) {
			t.Cleanup(leakcheck.Check(t))
			h, d, c := newDaemon(t)
			gate := gateSubmits(h, "SAP")
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			po := doc.NewGenerator(89).PO(tp1, seller)
			req, err := PORequest(po)
			if err != nil {
				t.Fatal(err)
			}
			req.Async = row.async

			type reply struct {
				resp *SubmitResponse
				err  error
			}
			replied := make(chan reply, 1)
			go func() {
				resp, err := c.Submit(ctx, req)
				replied <- reply{resp, err}
			}()
			waitCond(t, 5*time.Second, "submit inside SAP", func() bool { return gate.inside.Load() == 1 })

			type drainOutcome struct {
				sum core.DrainSummary
				err error
			}
			drained := make(chan drainOutcome, 1)
			go func() {
				sum, err := d.DrainAndClose(10 * time.Second)
				drained <- drainOutcome{sum, err}
			}()
			waitCond(t, 5*time.Second, "admission stopped", func() bool { return !h.Status().Sched.Running })
			select {
			case o := <-drained:
				t.Fatalf("DrainAndClose returned (%+v, %v) while a submit was inside SAP", o.sum, o.err)
			case <-time.After(50 * time.Millisecond):
			}

			close(gate.open)
			o := <-drained
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.sum.Completed != 1 || o.sum.Failed != 0 {
				t.Fatalf("drain summary %+v, want the held submit completed", o.sum)
			}
			r := <-replied
			if r.err != nil {
				t.Fatalf("client of the drained submit got %v, want its POA", r.err)
			}
			poa := &doc.PurchaseOrderAck{}
			if err := json.Unmarshal(r.resp.POA, poa); err != nil || poa.POID != po.ID {
				t.Fatalf("client got POA %+v (%v), want the POA of %s", poa, err, po.ID)
			}
			if got := h.Systems["SAP"].StoredOrders(); got != 1 {
				t.Fatalf("SAP stored %d orders, want 1", got)
			}
		})
	}
}
