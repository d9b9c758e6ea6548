package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/journal"
	"repro/internal/leakcheck"
	"repro/internal/msg"
	"repro/internal/server"
	"repro/internal/transform"
)

var seller = doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}

// testNode is one booted cluster member: hub + daemon + node + a dialed
// operator client.
type testNode struct {
	id      string
	hub     *core.Hub
	d       *server.Daemon
	node    *Node
	client  *server.Client
	stopped bool
}

// fig15Model is the startup model of every test node: Figure 14 plus the
// Figure 15 partner, so a node restarted on its journal is built on the
// same model and replays only the changes made to the live hub.
func fig15Model(t *testing.T) *core.Model {
	t.Helper()
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddPartner(core.Figure15Partner()); err != nil {
		t.Fatal(err)
	}
	return m
}

// bootCluster builds and serves one daemon per member ID: every hub runs
// the Figure 14+15 model (three partners, so ownership spreads), journals
// with fsync=always into dir when dir is non-empty, and takes its
// cluster-unique exchange ID base. Heartbeats are NOT started — tests that
// exercise failure detection call Start themselves. The returned shutdown
// runs as a deferred call AFTER the test's leakcheck registration (so it
// executes before the leak assertion); tests that kill members early mark
// them stopped so shutdown skips them.
func bootCluster(t *testing.T, ids []string, dir string, tweak func(*Config)) (map[string]*testNode, func()) {
	t.Helper()
	nodes := map[string]*testNode{}
	for _, id := range ids {
		nodes[id] = &testNode{id: id}
	}

	// Listeners first: membership needs every node's bound address.
	members := make([]Peer, 0, len(ids))
	for _, id := range ids {
		tn := nodes[id]
		cfg := Config{Node: id}
		for _, peerID := range ids {
			cfg.Peers = append(cfg.Peers, Peer{Node: peerID})
		}
		m := fig15Model(t)
		hubOpts := []core.HubOption{core.WithExchangeIDBase(cfg.ExchangeIDBase())}
		if dir != "" {
			hubOpts = append(hubOpts,
				core.WithJournal(JournalPath(dir, id)),
				core.WithFsyncPolicy(journal.FsyncAlways))
		}
		var err error
		tn.hub, err = core.NewHub(m, hubOpts...)
		if err != nil {
			t.Fatal(err)
		}
		tn.hub.StartScheduler()
		tn.d, err = server.NewDaemon(tn.hub, "127.0.0.1:0", server.WithName(id))
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, Peer{Node: id, Addr: tn.d.Addr()})
	}

	for _, id := range ids {
		tn := nodes[id]
		cfg := Config{
			Node:      id,
			Peers:     members,
			Heartbeat: 20 * time.Millisecond,
			Forward:   core.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, PerAttemptTimeout: time.Second},
		}
		if dir != "" {
			cfg.JournalDir = dir
		}
		if tweak != nil {
			tweak(&cfg)
		}
		var err error
		tn.node, err = New(tn.hub, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tn.node.Attach(tn.d)
		go tn.d.Serve()
		if tn.client, err = server.Dial(context.Background(), tn.d.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	return nodes, func() {
		for _, tn := range nodes {
			if tn.stopped {
				continue
			}
			tn.stop()
		}
	}
}

// stop tears one member down (idempotent).
func (tn *testNode) stop() {
	if tn.stopped {
		return
	}
	tn.stopped = true
	tn.client.Close()
	tn.node.Stop()
	tn.d.Close()
	tn.hub.Drain(context.Background())
	tn.hub.CloseJournal()
}

// poRequest builds the generator's next submit for the partner. One
// generator per test: PO IDs are sequential per generator, and the
// backends reject duplicate IDs.
func poRequest(t *testing.T, g *doc.Generator, partner string) server.SubmitRequest {
	t.Helper()
	buyer := doc.Party{ID: partner, Name: partner, DUNS: "111111111"}
	req, err := server.PORequest(g.PO(buyer, seller))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestOwnershipDeterministicAndStable: every node computes the same
// partner→owner map; a dead node's partners move to the next non-dead ring
// member while every alive node's assignment stays put.
func TestOwnershipDeterministicAndStable(t *testing.T) {
	defer leakcheck.Check(t)()
	nodes, shutdown := bootCluster(t, []string{"n1", "n2", "n3"}, "", nil)
	defer shutdown()
	partners := []string{"TP1", "TP2", "TP3", ""}

	owners := map[string]string{}
	for _, p := range partners {
		owners[p] = nodes["n1"].node.Owner(p)
		for id, tn := range nodes {
			if got := tn.node.Owner(p); got != owners[p] {
				t.Fatalf("node %s owns[%q]=%s, n1 says %s", id, p, got, owners[p])
			}
		}
	}
	// Every node must own at least one of the three real partners — the
	// fixture the forwarding tests rely on.
	byOwner := map[string]int{}
	for _, p := range partners[:3] {
		byOwner[owners[p]]++
	}
	if len(byOwner) < 2 {
		t.Fatalf("degenerate fixture: ownership %v", owners)
	}

	// Declare one owner dead in n1's view: its partners reassign, everyone
	// else's stay.
	var victim string
	for _, tp := range partners[:3] {
		if owners[tp] != "n1" {
			victim = owners[tp]
			break
		}
	}
	if victim == "" {
		t.Fatalf("degenerate fixture: n1 owns every partner: %v", owners)
	}
	obs := nodes["n1"].node
	p := obs.peers[victim]
	p.mu.Lock()
	p.state = core.PeerDead
	p.mu.Unlock()
	for _, tp := range partners {
		got := obs.Owner(tp)
		if owners[tp] == victim {
			if got == victim {
				t.Fatalf("dead node %s still owns %q", victim, tp)
			}
		} else if got != owners[tp] {
			t.Fatalf("alive assignment moved: owns[%q] %s -> %s", tp, owners[tp], got)
		}
	}
}

// TestSubmitForwardsToOwner: a submit landing on a non-owner crosses the
// wire to the owner, executes there under the owner's exchange ID range,
// and both sides' forward counters account for it.
func TestSubmitForwardsToOwner(t *testing.T) {
	defer leakcheck.Check(t)()
	nodes, shutdown := bootCluster(t, []string{"n1", "n2", "n3"}, "", nil)
	defer shutdown()
	g := doc.NewGenerator(1)

	owner := nodes["n1"].node.Owner("TP1")
	var relay *testNode
	for id, tn := range nodes {
		if id != owner {
			relay = tn
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	resp, err := relay.client.Submit(ctx, poRequest(t, g, "TP1"))
	if err != nil {
		t.Fatalf("forwarded submit: %v", err)
	}
	if resp.Partner != "TP1" {
		t.Fatalf("acked partner %q, want TP1", resp.Partner)
	}
	if _, ok := nodes[owner].hub.ExchangeByID(resp.ExchangeID); !ok {
		t.Fatalf("exchange %s not on owner %s", resp.ExchangeID, owner)
	}
	if _, ok := relay.hub.ExchangeByID(resp.ExchangeID); ok {
		t.Fatalf("exchange %s executed on relay %s too", resp.ExchangeID, relay.id)
	}
	if got := relay.hub.Status().Cluster.Forwarded; got != 1 {
		t.Fatalf("relay forwarded=%d, want 1", got)
	}
	if got := nodes[owner].hub.Status().Cluster.ForwardedIn; got != 1 {
		t.Fatalf("owner forwarded_in=%d, want 1", got)
	}

	// A submit landing on the owner stays local.
	if _, err := nodes[owner].client.Submit(ctx, poRequest(t, g, "TP1")); err != nil {
		t.Fatalf("local submit: %v", err)
	}
	if got := nodes[owner].hub.Status().Cluster.Forwarded; got != 0 {
		t.Fatalf("owner forwarded=%d, want 0", got)
	}
}

// TestWireSubmitRunsOnOwner: a protocol-native PO in each of the three
// Figure 15 protocols, submitted to a relay and to the owner, runs once on
// the owner (decoded there once, not re-encoded on the way) and comes back
// as a POA wire the partner's POA codec decodes. The relay answers with the
// owner's response body as it arrived: the same bytes a relay that decoded
// the SubmitResponse and encoded it again would send.
func TestWireSubmitRunsOnOwner(t *testing.T) {
	defer leakcheck.Check(t)()
	nodes, shutdown := bootCluster(t, []string{"n1", "n2", "n3"}, "", nil)
	defer shutdown()
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	codecs := core.NewCodecRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g := doc.NewGenerator(1)
	for partner, protocol := range map[string]formats.Format{"TP1": formats.EDI, "TP2": formats.RosettaNet, "TP3": formats.OAGIS} {
		owner := nodes["n1"].node.Owner(partner)
		var relay *testNode
		for id, tn := range nodes {
			if id != owner {
				relay = tn
				break
			}
		}
		for _, via := range []*testNode{relay, nodes[owner]} {
			po := g.PO(doc.Party{ID: partner, Name: partner, DUNS: "111111111"}, seller)
			native, err := reg.FromNormalized(protocol, doc.TypePO, po)
			if err != nil {
				t.Fatal(err)
			}
			poCodec, err := codecs.Lookup(protocol, doc.TypePO)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := poCodec.Encode(native)
			if err != nil {
				t.Fatal(err)
			}
			var raw json.RawMessage
			if err := via.client.Call(ctx, server.OpSubmit, server.SubmitRequest{
				Kind: string(core.DocWirePO), Protocol: string(protocol), Wire: wire, PartnerID: partner,
			}, &raw); err != nil {
				t.Fatalf("%s wire PO via %s: %v", protocol, via.id, err)
			}
			resp := &server.SubmitResponse{}
			if err := json.Unmarshal(raw, resp); err != nil {
				t.Fatal(err)
			}
			if again, err := json.Marshal(resp); err != nil || !bytes.Equal(again, raw) {
				t.Fatalf("%s response via %s is not the SubmitResponse's encoding:\n%s\n%s", protocol, via.id, raw, again)
			}
			poaCodec, err := codecs.Lookup(protocol, doc.TypePOA)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := poaCodec.Decode(resp.Wire); err != nil {
				t.Fatalf("%s POA wire via %s does not decode: %v\n%s", protocol, via.id, err, resp.Wire)
			}
			for id, tn := range nodes {
				if _, ok := tn.hub.ExchangeByID(resp.ExchangeID); ok != (id == owner) {
					t.Fatalf("%s exchange %s via %s: on %s %v, owner %s", protocol, resp.ExchangeID, via.id, id, ok, owner)
				}
			}
		}
	}
}

// TestMalformedSubmitIsBadFrame: a submit body that does not decode gets
// the same bad-frame error from a cluster node as from a bare daemon.
func TestMalformedSubmitIsBadFrame(t *testing.T) {
	defer leakcheck.Check(t)()
	nodes, shutdown := bootCluster(t, []string{"n1", "n2"}, "", nil)
	defer shutdown()
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := core.NewHub(m)
	if err != nil {
		t.Fatal(err)
	}
	hub.StartScheduler()
	defer hub.Drain(context.Background())
	bare, err := server.NewDaemon(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	go bare.Serve()
	bareClient, err := server.Dial(context.Background(), bare.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bareClient.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	body := json.RawMessage(`{"kind":5}`)
	want := bareClient.Call(ctx, server.OpSubmit, body, nil)
	if want == nil || !strings.HasPrefix(want.Error(), "server: decode submit: ") {
		t.Fatalf("bare daemon: want a bad-frame decode error, got %v", want)
	}
	for id, tn := range nodes {
		if err := tn.client.Call(ctx, server.OpSubmit, body, nil); err == nil || err.Error() != want.Error() {
			t.Fatalf("node %s: error %v, bare daemon %v", id, err, want)
		}
	}
}

// TestForwardFaultsRetry: seeded loss on the forward path costs retries,
// not submissions — the policy absorbs the faults and every order lands.
func TestForwardFaultsRetry(t *testing.T) {
	defer leakcheck.Check(t)()
	nodes, shutdown := bootCluster(t, []string{"n1", "n2"}, "", func(c *Config) {
		c.Faults = msg.Faults{LossProb: 0.5, Seed: 7}
		c.Forward = core.RetryPolicy{MaxAttempts: 12, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, PerAttemptTimeout: time.Second}
		// This test exercises the retry policy, not the breaker: 50% loss
		// would legitimately trip the default threshold, so keep it shut.
		c.Breaker.MinSamples = 10_000
	})
	defer shutdown()
	g := doc.NewGenerator(1)
	owner := nodes["n1"].node.Owner("TP1")
	relay := nodes["n1"]
	if owner == "n1" {
		relay = nodes["n2"]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 8; i++ {
		if _, err := relay.client.Submit(ctx, poRequest(t, g, "TP1")); err != nil {
			t.Fatalf("submit %d through lossy forward path: %v", i, err)
		}
	}
	cs := relay.hub.Status().Cluster
	if cs.Forwarded != 8 {
		t.Fatalf("forwarded=%d, want 8", cs.Forwarded)
	}
	if cs.ForwardRetries == 0 {
		t.Fatal("LossProb=0.5 over 8 forwards produced no retries")
	}
	if cs.ForwardFailed != 0 {
		t.Fatalf("forward_failed=%d, want 0", cs.ForwardFailed)
	}
}

// TestForwardExhaustionParks: with the owner unreachable, a forward burns
// its attempt budget and parks on the local DLQ as a typed, resubmittable
// ErrPeerUnavailable dead letter.
func TestForwardExhaustionParks(t *testing.T) {
	defer leakcheck.Check(t)()

	// One real node; its peer's address is a port that refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := core.NewHub(m)
	if err != nil {
		t.Fatal(err)
	}
	hub.StartScheduler()
	defer hub.Drain(context.Background())
	d, err := server.NewDaemon(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Node: "n1",
		Peers: []Peer{
			{Node: "n1", Addr: d.Addr()},
			{Node: "n2", Addr: deadAddr},
		},
		Forward: core.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, PerAttemptTimeout: 500 * time.Millisecond},
	}
	node, err := New(hub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	node.Attach(d)
	go d.Serve()
	defer d.Close()
	defer node.Stop()

	c, err := server.Dial(context.Background(), d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find a partner n2 owns.
	victim := ""
	for _, tp := range []string{"TP1", "TP2"} {
		if node.Owner(tp) == "n2" {
			victim = tp
			break
		}
	}
	if victim == "" {
		t.Fatal("fixture: n2 owns neither partner")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = c.Submit(ctx, poRequest(t, doc.NewGenerator(1), victim))
	if err == nil {
		t.Fatal("submit for unreachable owner succeeded")
	}
	if !errors.Is(err, core.ErrPeerUnavailable) {
		t.Fatalf("error %v does not wrap ErrPeerUnavailable", err)
	}
	dlq, err := c.DLQ(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dlq.Entries) != 1 || dlq.Entries[0].Partner != victim {
		t.Fatalf("dlq = %+v, want one %s entry", dlq.Entries, victim)
	}
	cs := hub.Status().Cluster
	if cs.ForwardFailed != 1 || cs.ForwardRetries != 1 {
		t.Fatalf("forward_failed=%d forward_retries=%d, want 1/1", cs.ForwardFailed, cs.ForwardRetries)
	}

	// The park is resubmittable. Resubmit is an explicit operator recovery
	// action and runs through the full LOCAL pipeline — every node carries
	// the whole model, so the exchange executes here, exactly once, instead
	// of burning another forward budget against a peer known to be down.
	rr, err := c.Resubmit(ctx, dlq.Entries[0].ExchangeID, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Outcomes) != 1 || rr.Outcomes[0].Err != nil {
		t.Fatalf("local resubmit of peer-unavailable park = %+v, want success", rr.Outcomes)
	}
	if _, ok := hub.ExchangeByID(rr.Outcomes[0].NewExchangeID); !ok {
		t.Fatalf("resubmitted exchange %s not traceable locally", rr.Outcomes[0].NewExchangeID)
	}
	if dlq, err = c.DLQ(ctx); err != nil || len(dlq.Entries) != 0 {
		t.Fatalf("dlq after successful resubmit: %v entries (err %v)", len(dlq.Entries), err)
	}
}

// TestHeartbeatDeathAndTakeover: the full failover story in-process. Node
// B executes journaled work, dies; A's heartbeats declare it suspect, then
// dead; ownership reassigns to A; A replays B's journal — B's wire-acked
// exchanges become traceable records on A, exactly once — and new submits
// for B's partners run locally on A.
func TestHeartbeatDeathAndTakeover(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	nodes, shutdown := bootCluster(t, []string{"nA", "nB"}, dir, func(c *Config) {
		c.DeadAfter = 3
	})
	defer shutdown()
	a, b := nodes["nA"], nodes["nB"]
	g := doc.NewGenerator(1)

	// A partner B owns, and B's journaled, wire-acked work for it.
	victim := ""
	for _, tp := range []string{"TP1", "TP2", "TP3"} {
		if a.node.Owner(tp) == "nB" {
			victim = tp
			break
		}
	}
	if victim == "" {
		t.Fatal("fixture: nB owns no partner")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	acked := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		resp, err := b.client.Submit(ctx, poRequest(t, g, victim))
		if err != nil {
			t.Fatalf("seed submit %d on nB: %v", i, err)
		}
		acked = append(acked, resp.ExchangeID)
	}

	// Only A probes from here on; then kill B without drain (the crash).
	a.node.Start()
	b.stop()

	waitFor(t, 10*time.Second, "nB declared dead", func() bool {
		cs := a.hub.Status().Cluster
		for _, p := range cs.Peers {
			if p.Node == "nB" {
				return p.State == core.PeerDead
			}
		}
		return false
	})
	waitFor(t, 10*time.Second, "takeover replay", func() bool {
		return a.hub.Status().Cluster.Takeovers >= 1
	})

	// Ownership reassigned to the survivor.
	if got := a.node.Owner(victim); got != "nA" {
		t.Fatalf("owner of %s after death = %s, want nA", victim, got)
	}
	// B's wire-acked exchanges survive on A, under their original IDs.
	for _, id := range acked {
		ex, ok := a.hub.ExchangeByID(id)
		if !ok {
			t.Fatalf("acked exchange %s lost in takeover", id)
		}
		if ex.Partner.ID != victim {
			t.Fatalf("restored exchange %s partner %s, want %s", id, ex.Partner.ID, victim)
		}
	}
	cs := a.hub.Status().Cluster
	if cs.TakenOver < int64(len(acked)) {
		t.Fatalf("taken_over=%d, want >= %d", cs.TakenOver, len(acked))
	}
	// New work for the victim partner now runs locally on A.
	resp, err := a.client.Submit(ctx, poRequest(t, g, victim))
	if err != nil {
		t.Fatalf("post-takeover submit: %v", err)
	}
	if _, ok := a.hub.ExchangeByID(resp.ExchangeID); !ok {
		t.Fatalf("post-takeover exchange %s not local to nA", resp.ExchangeID)
	}
	if a.hub.Status().Cluster.Forwarded != 0 {
		t.Fatal("post-takeover submit was forwarded, want local execution")
	}
}

// TestTakeoverSkipsUnownedPartitions: two survivors scanning the same dead
// journal each claim only their own partition — the skip counters prove
// the predicate split, which is what makes concurrent successor scans of
// one read-only file safe.
func TestTakeoverSkipsUnownedPartitions(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()

	// A dead node's journal, written by a throwaway hub owning everything.
	dead, err := core.NewHub(fig15Model(t),
		core.WithJournal(JournalPath(dir, "dead")),
		core.WithFsyncPolicy(journal.FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	g := doc.NewGenerator(1)
	for _, tp := range []string{"TP1", "TP2", "TP3"} {
		buyer := doc.Party{ID: tp, Name: tp, DUNS: "111111111"}
		if _, err := dead.Do(context.Background(), core.Request{Kind: core.DocPO, PO: g.PO(buyer, seller)}); err != nil {
			t.Fatalf("seed %s: %v", tp, err)
		}
	}
	dead.Drain(context.Background())
	dead.CloseJournal()

	// A fresh successor that owns only TP1 replays the journal.
	succ, err := core.NewHub(fig15Model(t), core.WithExchangeIDBase(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	succ.StartScheduler()
	defer succ.Drain(context.Background())
	rep, err := succ.TakeOverJournal(context.Background(), JournalPath(dir, "dead"),
		func(partner string) bool { return partner == "TP1" })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 {
		t.Fatalf("restored=%d, want 1 (TP1 only)", rep.Restored)
	}
	if rep.Skipped != 2 {
		t.Fatalf("skipped=%d, want 2 (TP2, TP3)", rep.Skipped)
	}
	if _, ok := succ.ExchangeByID("ex-000001"); !ok {
		t.Fatal("TP1 exchange not restored under its original ID")
	}

	// The dead file is untouched: a second successor claiming the rest
	// still finds everything.
	other, err := core.NewHub(fig15Model(t), core.WithExchangeIDBase(2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	other.StartScheduler()
	defer other.Drain(context.Background())
	rep2, err := other.TakeOverJournal(context.Background(), JournalPath(dir, "dead"),
		func(partner string) bool { return partner != "TP1" })
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Restored != 2 || rep2.Skipped != 1 {
		t.Fatalf("second successor restored=%d skipped=%d, want 2/1", rep2.Restored, rep2.Skipped)
	}
}

// TestClusterStatusShape: the versioned cluster section carries the member
// rows, ownership map and counters b2bctl renders.
func TestClusterStatusShape(t *testing.T) {
	defer leakcheck.Check(t)()
	nodes, shutdown := bootCluster(t, []string{"n1", "n2"}, "", nil)
	defer shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := nodes["n1"].client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.Cluster
	if cs == nil {
		t.Fatal("cluster section missing from wire status")
	}
	if cs.Version != core.ClusterVersion || cs.Node != "n1" {
		t.Fatalf("cluster header %+v", cs)
	}
	if len(cs.Peers) != 2 {
		t.Fatalf("peers=%d, want 2", len(cs.Peers))
	}
	states := map[string]core.PeerState{}
	for _, p := range cs.Peers {
		states[p.Node] = p.State
	}
	if states["n1"] != core.PeerSelf || states["n2"] != core.PeerAlive {
		t.Fatalf("peer states %v", states)
	}
	for _, tp := range []string{"TP1", "TP2", "TP3"} {
		if owner, ok := cs.Ownership[tp]; !ok || (owner != "n1" && owner != "n2") {
			t.Fatalf("ownership[%s]=%q", tp, owner)
		}
	}
}
