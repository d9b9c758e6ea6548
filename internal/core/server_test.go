package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/doc"
	"repro/internal/leakcheck"
	"repro/internal/msg"
)

// deployment wires a hub server and one client per partner over the
// in-process network with the given fault schedule.
type deployment struct {
	server  *Server
	clients map[string]*Client
	network *msg.InProcNetwork
}

func newDeployment(t *testing.T, faults msg.Faults, rcfg msg.ReliableConfig) *deployment {
	t.Helper()
	h := newFig14Hub(t)
	n := msg.NewInProcNetwork(faults)
	hubEP, err := n.Endpoint("hub")
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{
		server:  NewServer(h, hubEP, WithReliableConfig(rcfg)),
		clients: map[string]*Client{},
		network: n,
	}
	for _, p := range h.Snapshot().Model.Partners {
		ep, err := n.Endpoint(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		d.clients[p.ID] = NewClient(p, ep, rcfg, "hub")
	}
	t.Cleanup(func() {
		for _, c := range d.clients {
			c.Close()
		}
		d.server.Close()
		d.network.Close()
	})
	return d
}

func TestServerClientRoundTrip(t *testing.T) {
	d := newDeployment(t, msg.Faults{}, msg.ReliableConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	go d.server.Serve(ctx, nil)

	g := doc.NewGenerator(1)
	po := g.POWithAmount(tp1, seller, 60000)
	poa, err := d.clients["TP1"].RoundTrip(ctx, po)
	if err != nil {
		t.Fatal(err)
	}
	if poa.POID != po.ID || poa.Status != doc.AckAccepted {
		t.Fatalf("poa %+v", poa)
	}

	po2 := g.POWithAmount(tp2, seller, 500)
	poa2, err := d.clients["TP2"].RoundTrip(ctx, po2)
	if err != nil {
		t.Fatal(err)
	}
	if poa2.POID != po2.ID {
		t.Fatal("wrong correlation")
	}
}

func TestServerClientUnderFaults(t *testing.T) {
	d := newDeployment(t,
		msg.Faults{LossProb: 0.3, DupProb: 0.15, Seed: 21},
		msg.ReliableConfig{RetryInterval: 10 * time.Millisecond, MaxAttempts: 80})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	go d.server.Serve(ctx, nil)

	g := doc.NewGenerator(2)
	for i := 0; i < 8; i++ {
		po := g.PO(tp1, seller)
		poa, err := d.clients["TP1"].RoundTrip(ctx, po)
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if poa.POID != po.ID {
			t.Fatalf("round trip %d: wrong correlation", i)
		}
	}
	if st := d.clients["TP1"].Stats(); st.Retries == 0 {
		t.Fatal("expected retries on a lossy network")
	}
	// Duplicate inbound POs were suppressed by the reliable layer, so the
	// backend saw each order exactly once.
	if got := d.server.Hub.Systems["SAP"].StoredOrders(); got != 8 {
		t.Fatalf("SAP stored %d orders, want 8 (duplicate suppression failed)", got)
	}
}

// TestServeRejectsWrongDocType: Serve reports an inbound message that is
// not a purchase order on its error channel instead of submitting it.
func TestServeRejectsWrongDocType(t *testing.T) {
	d := newDeployment(t, msg.Faults{}, msg.ReliableConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	errCh := make(chan error, 1)
	go d.server.Serve(ctx, errCh)
	c := d.clients["TP1"]
	if err := c.rel.Send(ctx, "hub", &msg.Message{
		DocType: "SomethingElse", Protocol: "EDI-X12", Body: []byte("x"),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), `got "SomethingElse"`) {
			t.Fatalf("reported error %v, want the wrong document type", err)
		}
	case <-ctx.Done():
		t.Fatal("wrong doc type accepted")
	}
	if n := d.server.Hub.Status().Exchanges.Started; n != 0 {
		t.Fatalf("%d exchanges started for a non-PO message, want 0", n)
	}
}

// TestServerSurvivesMalformedContent: the paper's "incorrect message
// content" error case. A garbage purchase order is rejected, reported on
// the error channel, and the server keeps serving valid exchanges.
func TestServerSurvivesMalformedContent(t *testing.T) {
	d := newDeployment(t, msg.Faults{}, msg.ReliableConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make(chan error, 4)
	go d.server.Serve(ctx, errs)

	c := d.clients["TP1"]
	if err := c.rel.Send(ctx, "hub", &msg.Message{
		CorrelationID: "bogus",
		Protocol:      "EDI-X12",
		DocType:       string(doc.TypePO),
		Body:          []byte("ISA*this is not a valid interchange"),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("nil error reported")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("malformed message produced no error report")
	}

	// The hub still works.
	g := doc.NewGenerator(41)
	po := g.PO(tp1, seller)
	poa, err := c.RoundTrip(ctx, po)
	if err != nil {
		t.Fatal(err)
	}
	if poa.POID != po.ID {
		t.Fatal("wrong correlation after recovery")
	}
}

// TestAuthenticatedDeployment: server and clients share a channel secret;
// exchanges work, and raw unsigned traffic is dropped at the messaging
// layer before it can reach the hub.
func TestAuthenticatedDeployment(t *testing.T) {
	secret := []byte("cpa-shared-secret")
	rcfg := msg.ReliableConfig{
		RetryInterval: 10 * time.Millisecond, MaxAttempts: 5, Secret: secret,
	}
	d := newDeployment(t, msg.Faults{}, rcfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go d.server.Serve(ctx, nil)

	g := doc.NewGenerator(43)
	po := g.PO(tp1, seller)
	poa, err := d.clients["TP1"].RoundTrip(ctx, po)
	if err != nil {
		t.Fatal(err)
	}
	if poa.POID != po.ID {
		t.Fatal("wrong correlation")
	}

	// An attacker without the secret cannot get anything processed.
	attackerEP, err := d.network.Endpoint("attacker")
	if err != nil {
		t.Fatal(err)
	}
	attacker := msg.NewReliable(attackerEP, msg.ReliableConfig{
		RetryInterval: 5 * time.Millisecond, MaxAttempts: 3, // no secret
	})
	defer attacker.Close()
	err = attacker.Send(ctx, "hub", &msg.Message{
		Protocol: "EDI-X12", DocType: string(doc.TypePO), Body: []byte("forged"),
	})
	if err == nil {
		t.Fatal("unsigned message was acknowledged by an authenticated hub")
	}
	if st := d.server.Stats(); st.Rejected == 0 {
		t.Fatal("forgery not rejected at the messaging layer")
	}
}

// submitGate holds every Submit of the back end it wraps until n calls are
// inside it at once, or until ctx ends. With n = 0 it holds them until the
// test closes open.
type submitGate struct {
	backend.System
	ctx  context.Context
	n    int
	open chan struct{}

	mu           sync.Mutex
	inside, peak int
}

func (g *submitGate) Submit(ctx context.Context, wire []byte) error {
	g.mu.Lock()
	g.inside++
	if g.inside > g.peak {
		g.peak = g.inside
		if g.peak == g.n {
			close(g.open)
		}
	}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.inside--
		g.mu.Unlock()
	}()
	select {
	case <-g.open:
		return g.System.Submit(ctx, wire)
	case <-g.ctx.Done():
		return g.ctx.Err()
	}
}

// maxInside reports the most Submit calls that were inside at once.
func (g *submitGate) maxInside() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// gateSubmits wraps the hub's named back end in a submitGate of n calls
// that gives up when ctx ends.
func gateSubmits(ctx context.Context, h *Hub, name string, n int) *submitGate {
	gate := &submitGate{ctx: ctx, n: n, open: make(chan struct{})}
	h.WrapBackends(func(sys backend.System) backend.System {
		if sys.Name() != name {
			return sys
		}
		gate.System = sys
		return gate
	})
	return gate
}

// TestServeOverlapsWorkers: n workers on one shard behind Serve keep n
// partner exchanges in flight at once. SAP, TP1's back end, holds every
// Submit until n are inside it, so n concurrent TP1 round trips complete
// only when the hub overlaps them; a hub that runs fewer at once waits out
// the deadline.
func TestServeOverlapsWorkers(t *testing.T) {
	for _, n := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			t.Cleanup(leakcheck.Check(t))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			h := newFig14Hub(t, WithWorkersPerShard(n))
			gate := gateSubmits(ctx, h, "SAP", n)
			network := msg.NewInProcNetwork(msg.Faults{})
			defer network.Close()
			hubEP, err := network.Endpoint("hub")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(h, hubEP)
			defer srv.Close()
			serving := make(chan struct{})
			go func() {
				defer close(serving)
				srv.Serve(ctx, nil)
			}()
			defer func() {
				cancel()
				<-serving
			}()

			partner, _ := h.Snapshot().Model.PartnerByID(tp1.ID)
			g := doc.NewGenerator(61)
			var wg sync.WaitGroup
			for c := 0; c < n; c++ {
				ep, err := network.Endpoint(fmt.Sprintf("TP1-%d", c))
				if err != nil {
					t.Fatal(err)
				}
				client := NewClient(partner, ep, msg.ReliableConfig{}, "hub")
				defer client.Close()
				po := g.PO(tp1, seller)
				wg.Add(1)
				go func() {
					defer wg.Done()
					poa, err := client.RoundTrip(ctx, po)
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					if poa.POID != po.ID {
						t.Errorf("client %d: POA for %s, want %s", c, poa.POID, po.ID)
					}
				}()
			}
			wg.Wait()
			if got := gate.maxInside(); got != n {
				t.Fatalf("%d of %d SAP submits were in flight at once", got, n)
			}
		})
	}
}
