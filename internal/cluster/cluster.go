// Package cluster federates b2bhub daemons into a static-membership
// cluster with partner-affinity routing, peer failover and journal-backed
// takeover.
//
// Each node owns a deterministic partition of the trading partners: the
// FNV-32a partner→shard hash the scheduler uses inside one process (PR 3)
// is extended across processes by hashing the partner onto the sorted
// member list. A node that receives a submit for a partner it does not own
// forwards it to the owner over the existing v1 wire protocol (OpForward),
// under a per-peer retry/backoff/timeout policy and a per-peer circuit
// breaker; a forward that exhausts its policy parks the submission on the
// local dead-letter queue with a typed ErrPeerUnavailable, so nothing is
// dropped while a peer is down.
//
// Peers probe each other with OpHeartbeat. A peer that misses a run of
// beats is declared suspect, then dead; a dead peer's partners are
// deterministically reassigned (next alive node on the hash ring) and each
// successor replays the dead node's journal for its new partition
// (core.Hub.TakeOverJournal), which promotes the single-node SIGKILL
// exactly-once guarantee to cluster scope: every exchange the dead node
// acked over the wire was journaled complete before the ack, so the
// successor restores it without re-running; unacked admissions re-run with
// duplicate tolerance.
//
// The package layers on the daemon without the server package knowing: the
// node registers Daemon.Handle overrides for OpSubmit (routing) and handlers
// for OpForward/OpHeartbeat, running the local path through Daemon.Submit.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/server"
)

// Peer is one cluster member: its node ID and wire address.
type Peer struct {
	Node string `json:"node"`
	Addr string `json:"addr"`
}

// Config describes one node's view of the cluster. Membership is static:
// every node is configured with the same member list (self included) and
// ownership is a pure function of that list plus liveness.
type Config struct {
	// Node is this node's cluster ID; it must appear in Peers.
	Node string
	// Peers is the full member list, self included.
	Peers []Peer
	// JournalDir is the shared directory of per-node journals
	// (<dir>/<node>.wal, see JournalPath). Empty disables takeover replay —
	// a dead peer's unfinished work is lost, exactly as on a journal-less
	// single node.
	JournalDir string

	// Heartbeat is the peer probe period (default 250ms); ProbeTimeout
	// bounds each probe (default = Heartbeat).
	Heartbeat    time.Duration
	ProbeTimeout time.Duration
	// SuspectAfter and DeadAfter are the missed-beat runs that move a peer
	// alive→suspect (default 1) and suspect→dead (default 3).
	SuspectAfter int
	DeadAfter    int

	// Forward is the per-peer forward policy: attempt budget, exponential
	// backoff, per-attempt timeout (defaults 3 / 25ms / 500ms / 2s).
	Forward core.RetryPolicy
	// Breaker tunes the per-peer forward circuit breaker.
	Breaker health.Config
	// HopLimit caps forward chains during ownership disagreement (the
	// takeover window): a forward that has already hopped HopLimit times is
	// executed where it landed instead of bouncing further (default 2).
	HopLimit int

	// Faults injects seeded faults on the forward path, mirroring the
	// msg.Faults network model: LossProb drops an attempt before it is
	// sent (a synthetic transport failure that exercises the retry path),
	// Latency+Jitter delay each attempt. DupProb is ignored — a duplicated
	// forward would double-execute on the peer, outside the fault model the
	// exchange pipeline is built to absorb.
	Faults msg.Faults
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.Heartbeat
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 2
	}
	if c.Forward.MaxAttempts < 1 {
		c.Forward.MaxAttempts = 3
	}
	if c.Forward.BaseBackoff <= 0 {
		c.Forward.BaseBackoff = 25 * time.Millisecond
	}
	if c.Forward.MaxBackoff <= 0 {
		c.Forward.MaxBackoff = 500 * time.Millisecond
	}
	if c.Forward.PerAttemptTimeout <= 0 {
		c.Forward.PerAttemptTimeout = 2 * time.Second
	}
	if c.HopLimit <= 0 {
		c.HopLimit = 2
	}
	return c
}

// Index is this node's position in the sorted member list, the basis for
// cluster-unique exchange ID ranges.
func (c Config) Index() int {
	ids := make([]string, 0, len(c.Peers))
	for _, p := range c.Peers {
		ids = append(ids, p.Node)
	}
	sort.Strings(ids)
	for i, id := range ids {
		if id == c.Node {
			return i
		}
	}
	return 0
}

// ExchangeIDBase is the exchange sequence floor for this node — disjoint
// per-node ID ranges (node i starts at i×1e6), so a successor can restore
// a dead peer's exchanges under their original IDs without colliding with
// its own. Pass it to core.WithExchangeIDBase.
func (c Config) ExchangeIDBase() int { return c.Index() * 1_000_000 }

// JournalPath is the cluster journal layout: one WAL per node in the
// shared directory. Nodes open their own file with journal.Open; takeover
// reads a dead peer's file strictly read-only.
func JournalPath(dir, node string) string {
	return dir + "/" + node + ".wal"
}

// peer is one remote member's live state.
type peer struct {
	id, addr string

	mu        sync.Mutex
	client    *server.Client
	state     core.PeerState
	missed    int
	seq       uint64
	takenOver bool // this incarnation's journal already replayed
}

// Node wires one hub+daemon into the cluster: ownership routing, peer
// forwarding, heartbeats, takeover. Construct with New, bind to the daemon
// with Attach, then Start the heartbeat loop.
type Node struct {
	cfg   Config
	hub   *core.Hub
	bus   *obs.Bus
	d     *server.Daemon
	order []string // sorted member IDs, the hash ring
	addrs map[string]string
	peers map[string]*peer // remote members only

	breakers *health.Tracker

	faultMu sync.Mutex
	rng     *rand.Rand

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup

	forwarded      atomic.Int64
	forwardRetries atomic.Int64
	forwardFailed  atomic.Int64
	forwardedIn    atomic.Int64
	takeovers      atomic.Int64
	takenOver      atomic.Int64
}

// New builds the cluster node around hub. The daemon is bound later with
// Attach, which registers the node's wire handlers on it.
func New(hub *core.Hub, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Node == "" {
		return nil, fmt.Errorf("cluster: config needs a node ID")
	}
	seen := map[string]bool{}
	for _, p := range cfg.Peers {
		if p.Node == "" || p.Addr == "" {
			return nil, fmt.Errorf("cluster: member %+v needs node and addr", p)
		}
		if seen[p.Node] {
			return nil, fmt.Errorf("cluster: duplicate member %q", p.Node)
		}
		seen[p.Node] = true
	}
	if !seen[cfg.Node] {
		return nil, fmt.Errorf("cluster: node %q not in member list", cfg.Node)
	}
	n := &Node{
		cfg:     cfg,
		hub:     hub,
		bus:     hub.Bus(),
		addrs:   map[string]string{},
		peers:   map[string]*peer{},
		stopped: make(chan struct{}),
	}
	seed := cfg.Faults.Seed
	if seed == 0 {
		seed = 1
	}
	n.rng = rand.New(rand.NewSource(seed))
	for _, p := range cfg.Peers {
		n.order = append(n.order, p.Node)
		n.addrs[p.Node] = p.Addr
		if p.Node != cfg.Node {
			n.peers[p.Node] = &peer{id: p.Node, addr: p.Addr, state: core.PeerAlive}
		}
	}
	sort.Strings(n.order)
	n.breakers = health.NewTracker(cfg.Breaker, func(peerID string, from, to health.State) {
		n.bus.Emit(obs.Event{
			Partner: peerID,
			Kind:    obs.KindCluster, Stage: obs.StageCluster,
			Step: "breaker-" + to.String(),
		})
	})
	return n, nil
}

// Attach splices the node into its daemon — the OpSubmit routing override,
// the OpForward/OpHeartbeat handlers, the cluster section of Hub.Status.
// Call it after NewDaemon, before Serve.
func (n *Node) Attach(d *server.Daemon) {
	n.d = d
	d.Handle(server.OpSubmit, n.handleSubmit)
	d.Handle(server.OpForward, n.handleForward)
	d.Handle(server.OpHeartbeat, n.handleHeartbeat)
	n.hub.SetClusterStatus(n.status)
}

// Start launches the heartbeat loop. The node must be Attached first.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.heartbeatLoop()
}

// Stop ends heartbeats, waits for in-flight takeovers, closes the peer
// clients and detaches the status section. It does not touch the daemon.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopped) })
	n.wg.Wait()
	for _, p := range n.peers {
		p.mu.Lock()
		if p.client != nil {
			p.client.Close()
			p.client = nil
		}
		p.mu.Unlock()
	}
	n.hub.SetClusterStatus(nil)
}

// handleSubmit is the routing override: a submit for a partner this node
// owns runs locally (Daemon.Submit, on the request decoded here); anything
// else forwards to the owner, whose response body becomes this node's
// response body unchanged, and a forward that exhausts its policy parks
// locally with a typed ErrPeerUnavailable so the work stays durable and
// resubmittable.
func (n *Node) handleSubmit(ctx context.Context, body json.RawMessage) (any, error) {
	var sr server.SubmitRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		// Malformed frames get the built-in handler's typed decode error.
		return n.d.Builtin(server.OpSubmit, body)
	}
	owner := n.ownerOf(sr.PartnerKey())
	if owner == n.cfg.Node {
		return n.d.Submit(&sr)
	}
	resp, err := n.forward(ctx, owner, server.ForwardRequest{
		From: n.cfg.Node, Hops: 1, Submit: sr,
	})
	if err == nil {
		return resp, nil
	}
	if passThrough(err) {
		// Delivered end-to-end: this is the owner's pipeline verdict, not a
		// transport failure.
		return nil, err
	}
	req, cerr := sr.CoreRequest()
	if cerr != nil {
		return nil, cerr
	}
	_, perr := n.hub.ParkRequest(req, err)
	return nil, perr
}

// handleForward executes a peer's submit locally when this node owns the
// partner — or when the hop limit is reached, so an ownership disagreement
// during the takeover window degrades to executing where the work landed
// instead of bouncing forever.
func (n *Node) handleForward(ctx context.Context, body json.RawMessage) (any, error) {
	var fr server.ForwardRequest
	if err := json.Unmarshal(body, &fr); err != nil {
		return nil, fmt.Errorf("cluster: decode forward: %w", err)
	}
	n.forwardedIn.Add(1)
	owner := n.ownerOf(fr.Submit.PartnerKey())
	if owner != n.cfg.Node && owner != fr.From && fr.Hops < n.cfg.HopLimit {
		resp, err := n.forward(ctx, owner, server.ForwardRequest{
			From: n.cfg.Node, Hops: fr.Hops + 1, Submit: fr.Submit,
		})
		if err == nil {
			return resp, nil
		}
		if passThrough(err) {
			return nil, err
		}
		// The true owner is unreachable too: fall through and execute here.
	}
	return n.d.Submit(&fr.Submit)
}

// handleHeartbeat answers a peer's liveness probe.
func (n *Node) handleHeartbeat(_ context.Context, body json.RawMessage) (any, error) {
	var hr server.HeartbeatRequest
	if err := json.Unmarshal(body, &hr); err != nil {
		return nil, fmt.Errorf("cluster: decode heartbeat: %w", err)
	}
	return &server.HeartbeatResponse{Node: n.cfg.Node, Seq: hr.Seq}, nil
}
