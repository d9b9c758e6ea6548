package repro

// Multi-process chaos drill for the federation layer: three real b2bhub
// daemon processes form a cluster over TCP, a forwarded workload runs with
// seeded faults on the forward path, and the node owning the hottest
// partner is SIGKILLed mid-load. The survivors must:
//
//   - declare the owner dead via heartbeats and reassign its partners
//     deterministically;
//   - replay the dead node's journal so every exchange it wire-acked is
//     traceable on the successor by its original ID, exactly once — never
//     re-run, never lost;
//   - park submits that exhausted their forward budget during the outage
//     as typed ErrPeerUnavailable dead letters, resubmittable to success
//     once ownership has settled;
//   - keep serving the surviving partitions throughout, and drain cleanly.
//
// Children are this test binary re-exec'ed with -test.run pinned to the
// helper, so the lifecycle under test is the real one: cluster membership
// via env, wire protocol on the socket, kill -9 on the process.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/journal"
	"repro/internal/leakcheck"
	"repro/internal/msg"
	"repro/internal/server"
)

// TestClusterHelperProcess is not a test: it is one cluster member
// re-exec'ed by TestClusterCrashTakeover. Membership, address and fault
// model arrive via env; it prints READY and serves until killed.
func TestClusterHelperProcess(t *testing.T) {
	if os.Getenv("B2B_CLUSTER_HELPER") != "1" {
		t.Skip("helper process for TestClusterCrashTakeover")
	}
	nodeID := os.Getenv("B2B_CLUSTER_NODE")
	dir := os.Getenv("B2B_CLUSTER_DIR")
	var peers []cluster.Peer
	for _, kv := range strings.Split(os.Getenv("B2B_CLUSTER_PEERS"), ",") {
		id, addr, ok := strings.Cut(kv, "=")
		if !ok {
			t.Fatalf("bad peer %q", kv)
		}
		peers = append(peers, cluster.Peer{Node: id, Addr: addr})
	}
	loss, _ := strconv.ParseFloat(os.Getenv("B2B_CLUSTER_FWD_LOSS"), 64)
	seed, _ := strconv.ParseInt(os.Getenv("B2B_CLUSTER_FWD_SEED"), 10, 64)

	ccfg := cluster.Config{
		Node:       nodeID,
		Peers:      peers,
		JournalDir: dir,
		Heartbeat:  50 * time.Millisecond,
		Forward: core.RetryPolicy{
			MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond,
			MaxBackoff: 50 * time.Millisecond, PerAttemptTimeout: 2 * time.Second,
		},
		Faults: msg.Faults{LossProb: loss, Seed: seed},
	}
	// TP3 is part of the startup model: a node restarted on its journal
	// is built on the same model, and the journal replays only the changes
	// made to the live hub.
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddPartner(core.Figure15Partner()); err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHub(m,
		core.WithShards(2), core.WithWorkersPerShard(2),
		core.WithExchangeIDBase(ccfg.ExchangeIDBase()),
		core.WithJournal(cluster.JournalPath(dir, nodeID)),
		core.WithFsyncPolicy(journal.FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithTimeout(context.Background(), time.Minute)
	_, err = h.Recover(rctx)
	rcancel()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	h.StartScheduler()

	var addr string
	for _, p := range peers {
		if p.Node == nodeID {
			addr = p.Addr
		}
	}
	d, err := server.NewDaemon(h, addr, server.WithName(nodeID))
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.New(h, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	node.Attach(d)
	node.Start()
	fmt.Printf("READY %s\n", nodeID)
	if err := d.Serve(); err != nil {
		t.Fatal(err)
	}
}

// clusterChild is one running member process.
type clusterChild struct {
	id   string
	addr string
	cmd  *exec.Cmd
}

// startClusterChild re-execs the test binary as cluster member id and
// blocks until it prints READY.
func startClusterChild(t *testing.T, id, dir, peersEnv string) *clusterChild {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestClusterHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		"B2B_CLUSTER_HELPER=1",
		"B2B_CLUSTER_NODE="+id,
		"B2B_CLUSTER_DIR="+dir,
		"B2B_CLUSTER_PEERS="+peersEnv,
		"B2B_CLUSTER_FWD_LOSS=0.15",
		"B2B_CLUSTER_FWD_SEED=11",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	cc := &clusterChild{id: id, cmd: cmd}
	sc := bufio.NewScanner(stdout)
	deadline := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	ready := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "READY ") {
			ready = true
			break
		}
	}
	deadline.Stop()
	if !ready {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("cluster child %s never became ready", id)
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return cc
}

func (cc *clusterChild) kill() {
	cc.cmd.Process.Kill()
	cc.cmd.Wait()
}

func TestClusterCrashTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos drill")
	}
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Pre-allocate one loopback address per member: every child needs the
	// full membership, addresses included, before any of them starts.
	ids := []string{"n1", "n2", "n3"}
	addrs := map[string]string{}
	var peerParts []string
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = ln.Addr().String()
		ln.Close()
		peerParts = append(peerParts, id+"="+addrs[id])
	}
	peersEnv := strings.Join(peerParts, ",")

	children := map[string]*clusterChild{}
	clients := map[string]*server.Client{}
	alive := func(id string) bool { _, ok := clients[id]; return ok }
	defer func() {
		for _, c := range clients {
			c.Close()
		}
		for _, cc := range children {
			cc.kill()
		}
	}()
	for _, id := range ids {
		cc := startClusterChild(t, id, dir, peersEnv)
		cc.addr = addrs[id]
		children[id] = cc
		c, err := server.Dial(ctx, cc.addr)
		if err != nil {
			t.Fatalf("dial %s: %v", id, err)
		}
		clients[id] = c
	}

	// Map the partition: the victim is whoever owns TP1.
	st, err := clients["n1"].Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.Version != core.ClusterVersion {
		t.Fatalf("n1 reports no versioned cluster section: %+v", st.Cluster)
	}
	ownership := st.Cluster.Ownership
	victim := ownership["TP1"]
	if victim == "" {
		t.Fatalf("no owner for TP1 in %v", ownership)
	}
	var relayID string
	for _, id := range ids {
		if id != victim {
			relayID = id
			break
		}
	}
	t.Logf("ownership %v; victim %s, relay %s", ownership, victim, relayID)

	// Phase 1: forwarded workload against the victim's partition, all
	// submitted through a non-owner so every order crosses the faulty
	// forward path. Kill the owner once enough acks are banked.
	seller := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
	buyer := doc.Party{ID: "TP1", Name: "TP1 chaos", DUNS: "000000000"}
	var (
		mu     sync.Mutex
		acked  = map[string]bool{}
		parked []server.SubmitRequest
	)
	ackedCount := func() int { mu.Lock(); defer mu.Unlock(); return len(acked) }
	stop := make(chan struct{})
	// The submitter holds its own copy of the relay's client: the main
	// goroutine deletes the victim from the clients map while it runs.
	relay := clients[relayID]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := doc.NewGenerator(500)
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, err := server.PORequest(g.PO(buyer, seller))
			if err != nil {
				return
			}
			resp, err := relay.Submit(ctx, req)
			switch {
			case err == nil:
				mu.Lock()
				if acked[resp.ExchangeID] {
					t.Errorf("exchange %s acked twice", resp.ExchangeID)
				}
				acked[resp.ExchangeID] = true
				mu.Unlock()
			case errors.Is(err, core.ErrPeerUnavailable):
				// Forward budget exhausted during the outage: parked on the
				// relay's DLQ, resubmitted below once ownership settles.
				mu.Lock()
				parked = append(parked, req)
				mu.Unlock()
			default:
				t.Errorf("submit failed untyped: %v", err)
				return
			}
		}
	}()
	waitE2E(t, 30*time.Second, "10 wire acks through the forward path", func() bool {
		return ackedCount() >= 10
	})
	children[victim].kill() // SIGKILL: no drain, no goodbye
	clients[victim].Close()
	delete(clients, victim)

	// Phase 2: survivors declare the victim dead and one of them replays
	// its journal.
	waitE2E(t, 30*time.Second, "survivors to take over the dead partition", func() bool {
		st, err := clients[relayID].Status(ctx)
		if err != nil || st.Cluster == nil {
			return false
		}
		newOwner := st.Cluster.Ownership["TP1"]
		if newOwner == "" || newOwner == victim || !alive(newOwner) {
			return false
		}
		ost, err := clients[newOwner].Status(ctx)
		return err == nil && ost.Cluster != nil && ost.Cluster.Takeovers >= 1
	})
	close(stop)
	wg.Wait()

	st, err = clients[relayID].Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	successor := st.Cluster.Ownership["TP1"]
	t.Logf("successor %s; acked before+during kill: %d, parked: %d", successor, ackedCount(), len(parked))

	// Exactly-once, half one: every wire-acked exchange is traceable by its
	// original ID on the successor — the ack implied a durable journal
	// record, and the takeover replayed it.
	mu.Lock()
	ackedIDs := make([]string, 0, len(acked))
	for id := range acked {
		ackedIDs = append(ackedIDs, id)
	}
	mu.Unlock()
	succ := clients[successor]
	for _, id := range ackedIDs {
		tr, err := traceAnywhere(ctx, id, succ, clients[relayID])
		if err != nil {
			t.Errorf("acked exchange %s lost across the kill: %v", id, err)
		} else if tr.Partner != "TP1" {
			t.Errorf("exchange %s restored with partner %q", id, tr.Partner)
		}
	}
	// Exactly-once, half two: no acked exchange was re-run into a DLQ.
	for id, c := range clients {
		dlq, err := c.DLQ(ctx)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for _, e := range dlq.Entries {
			if acked[e.ExchangeID] {
				t.Errorf("acked exchange %s re-ran into %s's DLQ", e.ExchangeID, id)
			}
		}
		mu.Unlock()
	}

	// Phase 3: outage parks are recoverable. Resubmit the relay's DLQ; each
	// re-run either executes (the order never ran anywhere) or is rejected
	// by the backend's duplicate-order guard — the exactly-once boundary
	// where a forward was delivered and journaled on the victim but the
	// SIGKILL ate the ack: the relay parked its retry AND the takeover
	// replay already executed the admission, so the rerun must bounce.
	if len(parked) > 0 {
		rr, err := clients[relayID].Resubmit(ctx, "", true)
		if err != nil {
			t.Fatalf("resubmit parked outage submits: %v", err)
		}
		dups := 0
		for _, o := range rr.Outcomes {
			if o.Err == nil {
				continue
			}
			if strings.Contains(o.Err.Message, backend.ErrDuplicateOrder.Error()) {
				dups++ // already executed via takeover replay: exactly once
				continue
			}
			t.Errorf("parked submit %s failed on resubmit: %v", o.ExchangeID, o.Err)
		}
		dlq, err := clients[relayID].DLQ(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(dlq.Entries) != dups {
			t.Errorf("relay DLQ after resubmit: %d entries, want the %d duplicate-rejected re-parks",
				len(dlq.Entries), dups)
		}
		t.Logf("resubmitted %d parks: %d executed, %d duplicate-rejected (already run via takeover)",
			len(rr.Outcomes), len(rr.Outcomes)-dups, dups)
	}

	// New work for the dead partition lands on the successor without
	// crossing the wire twice.
	g := doc.NewGenerator(900)
	req, err := server.PORequest(g.PO(buyer, seller))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := succ.Submit(ctx, req); err != nil {
		t.Fatalf("post-takeover submit on successor: %v", err)
	}

	// Survivors drain cleanly under load shed.
	for id, c := range clients {
		sum, err := c.Drain(ctx, 15_000)
		if err != nil {
			t.Fatalf("drain %s: %v", id, err)
		}
		if sum.TimedOut {
			t.Errorf("drain %s timed out: %+v", id, sum)
		}
	}
}

// traceAnywhere traces id on the preferred clients in order, returning the
// first hit: the successor holds the dead node's replayed exchanges, the
// relay its own.
func traceAnywhere(ctx context.Context, id string, cs ...*server.Client) (*server.TraceResponse, error) {
	var lastErr error
	for _, c := range cs {
		tr, err := c.Trace(ctx, id)
		if err == nil {
			return tr, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// waitE2E polls cond until it holds or the deadline expires.
func waitE2E(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
