package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/doc"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// hangBackend wraps one named backend in a Faulty decorator that hangs every
// operation until the caller's context is cancelled; everything else is left
// untouched.
func hangBackend(h *Hub, name string) {
	h.WrapBackends(func(sys backend.System) backend.System {
		if sys.Name() != name {
			return sys
		}
		return backend.NewFaulty(sys, backend.FaultSchedule{HangProb: 1, Seed: 1})
	})
}

// submitHung fires n DocPO submissions for the partner from their own
// goroutines (backpressure blocks some of them) under a dedicated context,
// and returns the cancel that unwedges everything.
func submitHung(h *Hub, party doc.Party, n int) (context.CancelFunc, *sync.WaitGroup) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	g := doc.NewGenerator(41)
	for i := 0; i < n; i++ {
		po := g.PO(party, seller)
		wg.Add(1)
		go func(po *doc.PurchaseOrder) {
			defer wg.Done()
			fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: po})
			if err != nil {
				return // cancelled while blocked on backpressure: fine
			}
			fut.Result(context.Background())
		}(po)
	}
	return cancel, &wg
}

// p99 returns the 99th-percentile (here: near-max) of the samples.
func p99(samples []time.Duration) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := len(samples) * 99 / 100
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// measureLatencies runs n sequential round trips for the partner and
// returns per-call latencies; tag keeps order IDs unique across runs.
func measureLatencies(t *testing.T, h *Hub, party doc.Party, tag string, n int) []time.Duration {
	t.Helper()
	ctx := context.Background()
	g := doc.NewGenerator(23)
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		po := g.PO(party, seller)
		po.ID = fmt.Sprintf("%s-%s", po.ID, tag)
		start := time.Now()
		fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: po})
		if err != nil {
			t.Fatal(err)
		}
		if res := fut.Result(ctx); res.Err != nil {
			t.Fatal(res.Err)
		}
		out = append(out, time.Since(start))
	}
	return out
}

// TestShardIsolationHungPartner: with TP2's backend hung (backend.Faulty
// hang schedule), TP1's exchanges on the other shards keep completing with a
// p99 within 2x of the unloaded baseline — one wedged partner cannot stall
// the rest of the hub.
func TestShardIsolationHungPartner(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h := newFig14Hub(t, WithShards(4), WithWorkersPerShard(2), WithQueueDepth(2))
	hangBackend(h, "Oracle") // TP2 → Oracle; TP1 → SAP stays healthy

	const samples = 40
	base := p99(measureLatencies(t, h, tp1, "base", samples))

	// Wedge TP2: its dispatched jobs hang, the rest back up on its shard.
	cancel, wg := submitHung(h, tp2, 12)
	defer func() { cancel(); wg.Wait() }()
	time.Sleep(20 * time.Millisecond) // let the hung jobs reach the workers

	loaded := p99(measureLatencies(t, h, tp1, "loaded", samples))

	// The acceptance bound: healthy partners' p99 within 2x of baseline. The
	// floor absorbs scheduler jitter on sub-millisecond baselines.
	limit := 2 * base
	if floor := 250 * time.Millisecond; limit < floor {
		limit = floor
	}
	if loaded > limit {
		t.Fatalf("TP1 p99 %v under TP2 hang, baseline %v (limit %v)", loaded, base, limit)
	}

	// The gauges agree: every TP1 exchange completed, TP2's hung jobs are
	// either busy on their shard or still queued, and none of them completed.
	snaps := h.Status().Sched.PerShard
	var completed, busy, queued int64
	for _, s := range snaps {
		completed += s.Completed
		busy += s.Busy
		queued += s.Queued
	}
	if completed != 2*samples {
		t.Fatalf("completed %d, want %d", completed, 2*samples)
	}
	if busy == 0 && queued == 0 {
		t.Fatalf("no hung work visible in gauges: %+v", snaps)
	}
	if n := h.Status().Sched.Shards; n != 4 {
		t.Fatalf("shard count %d", n)
	}
}

// TestSchedulerBackpressure: a full shard queue blocks further submissions
// (bounded admission) and a blocked submission honors its context.
func TestSchedulerBackpressure(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h := newFig14Hub(t, WithShards(1), WithWorkersPerShard(1), WithQueueDepth(1))
	hangBackend(h, "SAP") // TP1 → SAP: every dispatched job wedges

	cancelHung, wg := submitHung(h, tp1, 2) // 1 dispatched + 1 queued
	defer func() { cancelHung(); wg.Wait() }()
	time.Sleep(20 * time.Millisecond)

	// The next submission must block on admission, then fail with the
	// submission context's error once cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	g := doc.NewGenerator(31)
	errCh := make(chan error, 1)
	go func() {
		_, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
		errCh <- err
	}()
	select {
	case err := <-errCh:
		t.Fatalf("submission did not block on a full shard (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked submission ignored its context")
	}
}

// dispatchRecorder is a bus sink collecting the scheduler's dispatch order.
type dispatchRecorder struct {
	mu    sync.Mutex
	order []string
}

func (r *dispatchRecorder) Emit(e obs.Event) {
	if e.Kind == obs.KindSched && e.Step == obs.StepDispatched {
		r.mu.Lock()
		r.order = append(r.order, e.Partner)
		r.mu.Unlock()
	}
}

// TestSchedulerPriorityLane: with the single worker wedged, a high-priority
// job queued after a backlog of normal jobs is dispatched first once the
// worker frees up.
func TestSchedulerPriorityLane(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h := newFig14Hub(t, WithShards(1), WithWorkersPerShard(1), WithQueueDepth(4))
	if _, err := h.AddPartner(Figure15Partner()); err != nil {
		t.Fatal(err)
	}

	// Wedge the single worker with one hung TP2 exchange so queued jobs pile
	// up behind it in lane order.
	hangBackend(h, "Oracle")
	cancelHung, wg := submitHung(h, tp2, 1)
	defer func() { cancelHung(); wg.Wait() }()
	time.Sleep(20 * time.Millisecond)

	// Two normal TP1 jobs, then one high-priority TP3 job, all queued while
	// the worker is wedged.
	ctx := context.Background()
	g := doc.NewGenerator(37)
	var futs []*Future
	for i := 0; i < 2; i++ {
		fut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp1, seller)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	hiFut, err := h.DoAsync(ctx, Request{Kind: DocPO, PO: g.PO(tp3, seller), Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}

	rec := &dispatchRecorder{}
	h.Bus().Attach(rec)

	cancelHung() // free the worker
	wg.Wait()
	for _, fut := range futs {
		if res := fut.Result(ctx); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if res := hiFut.Result(ctx); res.Err != nil {
		t.Fatal(res.Err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.order) != 3 {
		t.Fatalf("dispatch order %v, want 3 dispatches", rec.order)
	}
	// The first dispatch after the wedge clears is the high lane (TP3), the
	// normal-lane backlog follows.
	if rec.order[0] != tp3.ID || rec.order[1] != tp1.ID || rec.order[2] != tp1.ID {
		t.Fatalf("dispatch order %v, want [TP3 TP1 TP1]", rec.order)
	}
}

// TestTransformProgramCache: transform programs compile once per
// (from, to, doctype) key, are shared across exchanges, and the compile
// cache resets when a new transformer is registered.
func TestTransformProgramCache(t *testing.T) {
	h := newFig14Hub(t)
	ctx := context.Background()
	g := doc.NewGenerator(47)

	if got := h.reg.CompiledPrograms(); got != 0 {
		t.Fatalf("fresh registry caches %d programs", got)
	}
	if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err != nil {
		t.Fatal(err)
	}
	after1 := h.reg.CompiledPrograms()
	if after1 == 0 {
		t.Fatal("no transform programs cached after an exchange")
	}
	if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err != nil {
		t.Fatal(err)
	}
	if got := h.reg.CompiledPrograms(); got != after1 {
		t.Fatalf("second identical exchange grew the cache %d → %d", after1, got)
	}
}
