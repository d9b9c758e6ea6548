package core

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// Federation support: the primitives internal/cluster builds a multi-node
// hub out of. The hub itself stays single-node — it knows nothing about
// peers, heartbeats or ownership — but it exposes exactly what a cluster
// node needs: a way to park a submission that could not reach its owner
// (ParkRequest), a way to replay a dead peer's journal into this hub
// (TakeOverJournal), and a slot for the cluster section of Status
// (SetClusterStatus).

// ClusterVersion is the schema version of ClusterStatus. Like StatusVersion
// it is bumped only when a field changes meaning; additive fields do not
// bump it.
const ClusterVersion = 1

// PeerState classifies a cluster peer's liveness as seen by one node.
type PeerState string

// Peer states. A peer moves alive → suspect after the first missed
// heartbeat and suspect → dead after the configured run of misses; dead
// peers' partners are deterministically reassigned and their journal is
// replayed by the successor.
const (
	PeerSelf    PeerState = "self"
	PeerAlive   PeerState = "alive"
	PeerSuspect PeerState = "suspect"
	PeerDead    PeerState = "dead"
)

// PeerStatus is one node's row in a ClusterStatus.
type PeerStatus struct {
	// Node is the peer's cluster ID; Addr its wire address.
	Node string `json:"node"`
	Addr string `json:"addr"`
	// State is the peer's liveness as seen by the reporting node.
	State PeerState `json:"state"`
	// MissedBeats is the current run of unanswered heartbeats.
	MissedBeats int `json:"missed_beats,omitempty"`
	// Breaker is the forward circuit breaker's state for this peer
	// ("closed", "open", "half-open"; empty for self).
	Breaker string `json:"breaker,omitempty"`
	// Partners lists the trading partners the peer currently owns.
	Partners []string `json:"partners,omitempty"`
}

// ClusterStatus is the versioned federation section of a StatusSnapshot:
// the reporting node's view of peer liveness, the current partner→node
// ownership map, and the forward/takeover counters.
type ClusterStatus struct {
	// Version is the ClusterStatus schema version (ClusterVersion).
	Version int `json:"version"`
	// Node is the reporting node's cluster ID.
	Node string `json:"node"`
	// Peers is one row per cluster member, self included, in membership
	// order.
	Peers []PeerStatus `json:"peers"`
	// Ownership maps each trading partner to the node that currently owns
	// it (after dead-node reassignment).
	Ownership map[string]string `json:"ownership,omitempty"`
	// Forwarded counts submissions this node relayed to a peer;
	// ForwardRetries the failed attempts that backed off and retried;
	// ForwardFailed the submissions that exhausted their forward policy and
	// parked on the local DLQ; ForwardedIn the forwards this node executed
	// on behalf of peers.
	Forwarded      int64 `json:"forwarded"`
	ForwardRetries int64 `json:"forward_retries"`
	ForwardFailed  int64 `json:"forward_failed"`
	ForwardedIn    int64 `json:"forwarded_in"`
	// Takeovers counts dead-peer journals this node replayed; TakenOver
	// the exchanges those replays restored, re-ran or re-parked.
	Takeovers int64 `json:"takeovers"`
	TakenOver int64 `json:"taken_over"`
}

// SetClusterStatus registers the provider of StatusSnapshot's cluster
// section. The cluster node wrapping this hub calls it once at startup;
// a nil fn detaches the section. The provider is called on every Status
// and must be safe for concurrent use.
func (h *Hub) SetClusterStatus(fn func() *ClusterStatus) {
	h.clusterMu.Lock()
	h.clusterFn = fn
	h.clusterMu.Unlock()
}

// clusterStatus invokes the registered provider (nil without one).
func (h *Hub) clusterStatus() *ClusterStatus {
	h.clusterMu.Lock()
	fn := h.clusterFn
	h.clusterMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// ParkRequest terminates a submission locally without running it: the
// request is admitted (journaled, on durable hubs), an exchange record is
// created and immediately failed with cause wrapped as an *ExchangeError,
// and the request itself is retained on the dead-letter queue for
// Resubmit. It is the graceful-degradation landing of federated routing —
// a submission whose owner peer is unreachable keeps a durable, replayable
// copy on the node that accepted it instead of being dropped. A nil cause
// defaults to ErrPeerUnavailable.
func (h *Hub) ParkRequest(req Request, cause error) (*Result, error) {
	if err := req.normalize(); err != nil {
		return &Result{Err: err}, err
	}
	key, err := h.journalAdmit(&req)
	if err != nil {
		return &Result{Err: err}, err
	}
	partner := req.healthKey()
	route, ok := h.resolveRoute(partner)
	if !ok {
		err := fmt.Errorf("%w: %q", ErrUnknownPartner, partner)
		res := Result{Err: err}
		h.journalComplete(key, &req, &res)
		return &res, err
	}
	flow := obs.FlowPO
	if req.Kind == DocInvoice {
		flow = obs.FlowInvoice
	}
	if cause == nil {
		cause = ErrPeerUnavailable
	}
	ex := h.newExchange(route, flow, &req, "")
	werr := wrapExchangeErr(ex, obs.StageExchange, "", cause)
	h.emitLifecycle(ex, obs.StepStarted, 0, nil)
	h.emitLifecycle(ex, obs.StepFailed, 0, werr)
	h.deadLetter(ex, werr, req)
	h.bus.Emit(obs.Event{
		ExchangeID: ex.ID,
		Partner:    partner,
		Flow:       flow,
		Kind:       obs.KindCluster,
		Stage:      obs.StageCluster,
		Step:       obs.StepForwardFailed,
		Err:        werr,
	})
	res := Result{Exchange: ex, Err: werr}
	h.journalComplete(key, &req, &res)
	return &res, werr
}

// TakeoverReport is what one TakeOverJournal pass recovered from a dead
// peer's journal.
type TakeoverReport struct {
	// Records is how many records the peer's journal yielded; TornBytes how
	// many trailing bytes of a torn final append were ignored; Corrupt how
	// many mid-file corrupt regions the scan skipped past (the dead file
	// is read-only, so nothing is quarantined — the regions are simply not
	// replayed).
	Records   int
	TornBytes int64
	Corrupt   int
	// Restored counts the peer's completed exchanges restored as records
	// under their original IDs (traceable, never re-run).
	Restored int
	// DeadLetters counts the peer's unresolved dead letters re-parked on
	// this hub's queue (and re-journaled here, on durable hubs).
	DeadLetters int
	// Reenqueued counts the peer's unfinished admissions re-run through
	// this hub's scheduler; Recovered the replays that completed,
	// Redelivered the replays that dead-lettered (at-most-once redelivery).
	Reenqueued  int
	Recovered   int
	Redelivered int
	// Skipped counts entries for partners the owns predicate rejected —
	// partners reassigned to a different successor, which recovers them
	// from the same journal.
	Skipped int
}

// TakeOverJournal replays a dead peer's journal into this hub, filtered to
// the partners the owns predicate claims (nil claims everything). The file
// at path is read strictly read-only — journal.ScanAll, never
// journal.Open, so a torn tail is skipped without truncating the dead
// node's file and concurrent successors can scan the same journal for
// their own partitions. ScanAll also resynchronizes past mid-file corrupt
// regions (a dead node's disk may be why it died), so isolated rot costs
// only the records it covers, not everything after them.
//
// The single-node exactly-once argument carries over per entry:
//
//   - a completed outcome means the peer journaled the completion (with
//     fsync=always, before the ack crossed the wire): the exchange is
//     restored as a record under its original ID and never re-run;
//   - an unresolved dead letter is re-parked on this hub's queue, and
//     re-journaled here so it survives this node's own crash;
//   - an admit without a complete never acked: it is re-admitted through
//     this hub's own journal and re-run with duplicate tolerance, so a
//     crash between the peer's execution and its completion record
//     re-delivers at most once.
//
// A missing file is an empty journal (the peer died before writing one).
// Call TakeOverJournal only for peers declared dead: replaying a live
// peer's journal would double-run its pending admissions.
func (h *Hub) TakeOverJournal(ctx context.Context, path string, owns func(partner string) bool) (TakeoverReport, error) {
	var rep TakeoverReport
	fs := h.jrnFS
	if fs == nil {
		fs = journal.OSFS()
	}
	data, err := fs.ReadFile(path)
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return rep, fmt.Errorf("core: takeover: %w", err)
	}
	recs, regions, torn := journal.ScanAll(data)
	snap, _, _ := scanJournal(recs, nil)
	rep.Records = snap.records
	rep.TornBytes = torn
	rep.Corrupt = len(regions)
	if owns == nil {
		owns = func(string) bool { return true }
	}
	start := time.Now()
	h.bus.Emit(obs.Event{Kind: obs.KindRecovery, Stage: obs.StageRecovery, Step: obs.StepStarted})

	// The peer's completed exchanges come back as records so audit trails
	// and ExchangeByID survive the node death, exactly as they survive a
	// single-node restart.
	for _, out := range snap.finished {
		if !owns(out.Partner) {
			rep.Skipped++
			continue
		}
		if h.restoreExchange(out) {
			rep.Restored++
			h.bus.Emit(obs.Event{
				ExchangeID: out.ExchangeID, Partner: out.Partner, Flow: out.Flow,
				Kind: obs.KindRecovery, Stage: obs.StageRecovery, Step: obs.StepRestored,
			})
		}
	}

	// The peer's unresolved dead letters move to this hub's queue — and
	// into this hub's journal, so they keep surviving crashes here.
	for _, exID := range snap.deadOrder {
		out := snap.dead[exID]
		if !owns(out.Partner) {
			rep.Skipped++
			continue
		}
		h.restoreExchange(out)
		dl := DeadLetter{
			ExchangeID: out.ExchangeID,
			Partner:    out.Partner,
			Flow:       out.Flow,
			Protocol:   out.Protocol,
			Reason:     fmt.Errorf("taken over: %s", out.Reason),
			At:         time.Now(),
			journaled:  h.jrn != nil,
		}
		if out.Request != nil {
			req := out.Request.toRequest()
			dl.req = &req
		}
		h.dlqMu.Lock()
		h.dlq = append(h.dlq, dl)
		h.dlqMu.Unlock()
		if h.jrn != nil {
			h.appendOutcome("", out)
		}
		rep.DeadLetters++
		h.bus.Emit(obs.Event{
			ExchangeID: out.ExchangeID, Partner: out.Partner, Flow: out.Flow,
			Kind: obs.KindRecovery, Stage: obs.StageRecovery, Step: obs.StepDeadLetterRestored,
		})
	}

	// The peer's unfinished admissions re-enter through this hub's front
	// door: fresh admission in this journal, health gate, scheduler,
	// duplicate-tolerant replay.
	var replays []*Future
	for _, key := range snap.pendingOrder {
		jr := snap.pending[key]
		req := jr.toRequest()
		// An entry whose partner is unknown before decode (a wire-po with no
		// shard hint) reports "" — the ownership predicate decides who takes
		// unattributable work.
		if !owns(req.healthKey()) {
			rep.Skipped++
			continue
		}
		if snap.attempts[key] >= poisonThreshold {
			// The peer's recovery crash-looped on this admission; the
			// successor parks it durably instead of inheriting the loop.
			_, _ = h.ParkRequest(jr.toRequest(), fmt.Errorf("taken-over poison admission %s: %d recovery replays did not complete", key, snap.attempts[key]))
			rep.Reenqueued++
			rep.Redelivered++
			continue
		}
		fut, err := h.DoAsync(ctx, req)
		if err != nil {
			// The scheduler refused (stopped, ctx done): park the admission
			// durably here so the work stays replayable via Resubmit.
			_, _ = h.ParkRequest(jr.toRequest(), fmt.Errorf("takeover replay refused: %w", err))
			rep.Reenqueued++
			rep.Redelivered++
			continue
		}
		rep.Reenqueued++
		replays = append(replays, fut)
	}
	for _, fut := range replays {
		res := fut.Result(ctx)
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		if res.Err == nil {
			rep.Recovered++
		} else {
			rep.Redelivered++
		}
		var exID string
		if res.Exchange != nil {
			exID = res.Exchange.ID
		}
		h.bus.Emit(obs.Event{
			ExchangeID: exID,
			Kind:       obs.KindRecovery, Stage: obs.StageRecovery, Step: obs.StepReplayed,
			Err: res.Err,
		})
	}
	h.bus.Emit(obs.Event{
		Kind: obs.KindRecovery, Stage: obs.StageRecovery, Step: obs.StepFinished,
		Elapsed: time.Since(start),
	})
	h.bus.Emit(obs.Event{
		Kind: obs.KindCluster, Stage: obs.StageCluster, Step: obs.StepTakeover,
		Elapsed: time.Since(start),
	})
	return rep, nil
}
