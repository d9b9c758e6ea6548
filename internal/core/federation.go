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
// copy on the node that accepted it instead of being dropped; a wire PO
// with no partner hint is parked under its protocol. A nil cause defaults
// to ErrPeerUnavailable.
func (h *Hub) ParkRequest(req Request, cause error) (*Result, error) {
	if err := req.normalize(); err != nil {
		return &Result{Err: err}, err
	}
	key, err := h.journalAdmit(&req)
	if err != nil {
		return &Result{Err: err}, err
	}
	if cause == nil {
		cause = ErrPeerUnavailable
	}
	res := h.park(req, key, cause, obs.KindCluster, obs.StageCluster, obs.StepForwardFailed)
	return &res, res.Err
}

// TakeOverJournal replays a dead peer's journal into this hub, filtered to
// the partners the owns predicate claims (nil claims everything), through
// the same replay as Recover (see replay for what happens to each entry).
// The file at path is read strictly read-only — journal.ScanAll, never
// journal.Open, which repairs the file in place — so concurrent successors
// can scan the same journal for their own partitions. ScanAll applies
// Open's recovery rule without writing: a torn tail is skipped, and
// mid-file corrupt regions (a dead node's disk may be why it died) are
// resynchronized past, so damage costs only the records it covers.
//
// The single-node exactly-once argument carries over per entry: a
// completed outcome was journaled by the peer before its ack crossed the
// wire (fsync=always), so it is restored under its original ID and never
// re-run; an admit without a complete never acked, so it is re-admitted
// here and re-run with duplicate tolerance, re-delivering at most once.
//
// A missing file is an empty journal (the peer died before writing one).
// Call TakeOverJournal only for peers declared dead: replaying a live
// peer's journal would double-run its pending admissions.
func (h *Hub) TakeOverJournal(ctx context.Context, path string, owns func(partner string) bool) (RecoveryReport, error) {
	var rep RecoveryReport
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
	rep.TornBytes = torn
	rep.Corrupt = len(regions)
	start := time.Now()
	if err := h.replay(ctx, snap, true, owns, &rep); err != nil {
		return rep, err
	}
	h.bus.Emit(obs.Event{
		Kind: obs.KindCluster, Stage: obs.StageCluster, Step: obs.StepTakeover,
		Elapsed: time.Since(start),
	})
	return rep, nil
}
