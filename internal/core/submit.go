package core

import (
	"context"
	"fmt"

	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/obs"
)

// The unified submission API: every way into the hub — normalized PO round
// trips, protocol-native wire documents, outbound invoices — is one Request,
// and every Request runs as one job on the sharded scheduler. DoAsync
// queues the job and returns a Future; Do is DoAsync followed by
// Future.Result. Dead-letter reruns and recovery replays queue the same
// job, so every exchange passes the same journal, health gate, breaker
// verdict, shard, backpressure and drain.

// DocKind selects the business flow of a Request.
type DocKind string

// Request kinds.
const (
	// DocPO runs the normalized purchase order round trip: Request.PO is
	// required.
	DocPO DocKind = "po"
	// DocWirePO runs an inbound protocol-native purchase order:
	// Request.Protocol and Request.Wire are required; Request.PartnerID is
	// an optional health-gate and scheduler shard-key hint (the partner is
	// not known until decode).
	DocWirePO DocKind = "wire-po"
	// DocInvoice runs the outbound invoice flow: Request.PartnerID and
	// Request.POID are required.
	DocInvoice DocKind = "invoice"
)

// Priority selects a Request's scheduler queue lane.
type Priority int

// Priorities. The high lane of each shard is drained before the normal one.
const (
	PriorityNormal Priority = iota
	PriorityHigh
)

// Request describes one submission to the hub.
type Request struct {
	// Kind selects the flow; the zero value with PO set behaves as DocPO.
	Kind DocKind

	// PO is the normalized purchase order (DocPO).
	PO *doc.PurchaseOrder
	// Protocol and Wire are the inbound protocol document (DocWirePO).
	Protocol formats.Format
	Wire     []byte
	// PartnerID identifies the billed partner (DocInvoice) and, for
	// DocWirePO, optionally hints the scheduler shard key.
	PartnerID string
	// POID identifies the fulfilled order to bill (DocInvoice).
	POID string

	// Priority selects the request's scheduler lane.
	Priority Priority
	// Retry overrides the hub's retry policies for this exchange only.
	Retry *RetryPolicy

	// resubmit marks a recovery replay or dead-letter rerun: its app
	// binding tolerates the backend's duplicate-order rejection (the
	// original run may have executed before a crash or downstream failure).
	resubmit bool
	// key is the request's journal admission key ("" when none holds it):
	// its terminal transition writes the outcome record under it.
	key string
	// taken is the dead letter a rerun replays: a rerun that parks again
	// resolves it and takes its place.
	taken *deadEntry
}

// normalize fills derivable fields and validates the request.
func (r *Request) normalize() error {
	if r.Kind == "" {
		switch {
		case r.PO != nil:
			r.Kind = DocPO
		case len(r.Wire) > 0:
			r.Kind = DocWirePO
		case r.POID != "":
			r.Kind = DocInvoice
		}
	}
	switch r.Kind {
	case DocPO:
		if r.PO == nil {
			return fmt.Errorf("%w: DocPO requires PO", ErrInvalidRequest)
		}
	case DocWirePO:
		if r.Protocol == "" || len(r.Wire) == 0 {
			return fmt.Errorf("%w: DocWirePO requires Protocol and Wire", ErrInvalidRequest)
		}
	case DocInvoice:
		if r.PartnerID == "" || r.POID == "" {
			return fmt.Errorf("%w: DocInvoice requires PartnerID and POID", ErrInvalidRequest)
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrInvalidRequest, r.Kind)
	}
	return nil
}

// shardKey is the scheduler key the request hashes to its shard by: the
// trading partner wherever it is known before decode.
func (r *Request) shardKey() string {
	switch r.Kind {
	case DocPO:
		if r.PO != nil {
			return r.PO.Buyer.ID
		}
	case DocInvoice:
		return r.PartnerID
	case DocWirePO:
		if r.PartnerID != "" {
			return r.PartnerID
		}
		return string(r.Protocol)
	}
	return string(r.Kind)
}

// Result is the outcome of a submitted exchange.
type Result struct {
	// POA is the normalized acknowledgment (DocPO).
	POA *doc.PurchaseOrderAck
	// Wire is the outbound wire document (DocWirePO, DocInvoice).
	Wire []byte
	// Exchange is the exchange record; it may be non-nil even on error.
	Exchange *Exchange
	// Err is the pipeline error, if any.
	Err error
}

// Future resolves to the Result of a submitted exchange.
type Future struct {
	done chan struct{}
	res  Result
}

// Done returns a channel that is closed when the result is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// Result blocks until the exchange completes or ctx is done. A context
// error only abandons the wait; the exchange itself keeps running under the
// context it was submitted with. A result that is already available is
// returned even when ctx is done.
func (f *Future) Result(ctx context.Context) Result {
	select {
	case <-f.done:
		return f.res
	default:
	}
	select {
	case <-f.done:
		return f.res
	case <-ctx.Done():
		return Result{Err: ctx.Err()}
	}
}

// Do runs one request and waits for its result: it is DoAsync followed by
// Future.Result(ctx). The returned error equals Result.Err; the Result
// additionally carries the exchange record and payloads even on failure.
// When ctx ends first, Do returns ctx.Err() while the exchange, which runs
// under the same ctx, aborts between steps on its worker.
func (h *Hub) Do(ctx context.Context, req Request) (*Result, error) {
	fut, err := h.DoAsync(ctx, req)
	if err != nil {
		return &Result{Err: err}, err
	}
	res := fut.Result(ctx)
	return &res, res.Err
}

// DoAsync queues one request onto the sharded scheduler and returns a
// future for its result. The scheduler is started lazily with the hub's
// configured shard/worker options on first use. Cancelling ctx abandons a
// queued request and aborts a running exchange between steps. An
// admission the scheduler refuses — the hub is stopped, or ctx ended while
// the submission waited for room — is journaled as aborted: it never ran,
// and a restart must not run it either.
func (h *Hub) DoAsync(ctx context.Context, req Request) (*Future, error) {
	if err := req.normalize(); err != nil {
		return nil, err
	}
	if err := h.admit(&req); err != nil {
		return nil, err
	}
	fut, err := h.doAsync(ctx, req)
	if err != nil {
		h.ledger.abort(req.key, err)
	}
	return fut, err
}

// doAsync queues an already-admitted (normalized, journaled) request as a
// scheduler job, the one place an exchange runs; req.key is its journal
// admission key ("" without one). Recovery replays re-enter here under
// their original key and dead-letter reruns with none. The job ends the
// request in the ledger: complete, or fail unless the exchange parked. A
// request the scheduler refuses is returned as the error with nothing run,
// parked or journaled, and each caller settles it: DoAsync journals it as
// aborted, Resubmit puts the dead letter back on the queue, and a replay
// leaves its admission pending for the next Recover.
func (h *Hub) doAsync(ctx context.Context, req Request) (*Future, error) {
	// A stopped hub refuses before the health gate, which would otherwise
	// fast-fail an open circuit's request into a new dead letter.
	s, err := h.ensureScheduler()
	if err != nil {
		return nil, err
	}
	partner, probe, rejected := h.healthGate(req)
	if rejected != nil {
		// Open circuit: resolve immediately without queueing a job.
		fut := &Future{done: make(chan struct{}), res: *rejected}
		close(fut.done)
		return fut, nil
	}
	// The shedder may drop normal-priority work for a degraded partner
	// when its home shard is backed up — but never probes (they are the
	// recovery signal) and never requests without a health-gated partner.
	var onShed func() Result
	if partner != "" && !probe {
		onShed = func() Result {
			h.shed.Add(1)
			cause := fmt.Errorf("%w: circuit %s", ErrPartnerUnavailable, h.health.StateOf(partner))
			return h.park(req, cause, obs.KindHealth, obs.StageHealth, obs.StepShed)
		}
	}
	fut, err := s.submit(ctx, req.shardKey(), req.Priority, func(ctx context.Context) Result {
		res := h.runTracked(ctx, req, partner, probe)
		if res.Err == nil {
			h.forget(h.ledger.complete(req.key, res.Exchange))
		} else {
			h.forget(h.ledger.fail(req.key, res.Exchange, res.Err))
		}
		return res
	}, onShed)
	if err != nil {
		// Refused before the job could run (the scheduler stopped since
		// the check above, or ctx ended while blocked on backpressure):
		// the breaker already admitted it, so free a probe's slot or the
		// half-open circuit would wait forever for its verdict.
		h.releaseProbe(partner, probe)
		return nil, err
	}
	return fut, nil
}

// run executes a normalized request. It is the only caller of the three
// flow drivers.
func (h *Hub) run(ctx context.Context, req Request) Result {
	switch req.Kind {
	case DocPO:
		poa, ex, err := h.roundTrip(ctx, req)
		return Result{POA: poa, Exchange: ex, Err: err}
	case DocWirePO:
		out, ex, err := h.processInboundPO(ctx, req)
		return Result{Wire: out, Exchange: ex, Err: err}
	case DocInvoice:
		wire, ex, err := h.sendInvoice(ctx, req)
		return Result{Wire: wire, Exchange: ex, Err: err}
	}
	err := fmt.Errorf("%w: unknown kind %q", ErrInvalidRequest, req.Kind)
	return Result{Err: err}
}

// ensureScheduler returns the running scheduler, starting it with the
// hub's configured options on first use; a drained hub refuses with
// ErrHubStopped.
func (h *Hub) ensureScheduler() (*scheduler, error) {
	h.schedMu.Lock()
	defer h.schedMu.Unlock()
	if h.drained {
		return nil, ErrHubStopped
	}
	if h.sched == nil {
		cfg := h.schedCfg
		h.sched = newScheduler(h, cfg.shards, cfg.workersPerShard, cfg.queueDepthOrDefault())
	}
	return h.sched, nil
}

// StartScheduler starts the sharded scheduler with the hub's configured
// options (WithShards, WithWorkersPerShard, WithQueueDepth) ahead of the
// first submission, which would otherwise start it. It is a no-op when the
// scheduler is already running or the hub has been drained.
func (h *Hub) StartScheduler() {
	_, _ = h.ensureScheduler() // ErrHubStopped: a drained hub stays stopped
}

// DrainSummary reports what a graceful Drain delivered.
type DrainSummary struct {
	// Completed counts exchanges that finished successfully over the hub's
	// lifetime, including those completed during the drain itself.
	Completed int64
	// Failed counts exchanges that ended in error (fast-fails and sheds
	// included).
	Failed int64
	// Shed counts submissions dropped by the adaptive load shedder.
	Shed int64
	// DeadLettered is the dead-letter queue's depth when Drain returns.
	// Drain leaves the queue as it is: DeadLetters still lists every
	// entry, and a journaled hub's next Recover restores them.
	DeadLettered int64
}

// Drain is the hub's one shutdown, and a final one: admission stops at
// once (every entry — Do, DoAsync, Resubmit, Server.Serve — gets
// ErrHubStopped, also for a partner whose circuit is open), queued and
// in-flight exchanges run to completion, and the dead-letter queue is left
// as it is. Every call waits for the same shutdown: Drain returns nil once
// the last exchange has finished, or ctx.Err() when ctx ends first, with a
// summary of what had finished by then, while the shutdown goes on in the
// background for a later Drain to wait for.
func (h *Hub) Drain(ctx context.Context) (DrainSummary, error) {
	h.schedMu.Lock()
	h.drained = true
	s := h.sched
	h.schedMu.Unlock()
	if s != nil {
		select {
		case <-s.stop():
		case <-ctx.Done():
			return h.drainSummary(), ctx.Err()
		}
	}
	return h.drainSummary(), nil
}

// drainSummary derives the drain outcome from the lifecycle counters and
// the dead-letter queue.
func (h *Hub) drainSummary() DrainSummary {
	c := h.counters.Snapshot()
	var terminal int64
	for _, n := range c.ByFlow {
		terminal += n
	}
	depth, _, _ := h.ledger.counts()
	return DrainSummary{
		Completed:    terminal - c.Failed,
		Failed:       c.Failed,
		Shed:         h.shed.Load(),
		DeadLettered: int64(depth),
	}
}
