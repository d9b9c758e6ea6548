package repro

// Full-stack integration test: the complete system assembled the way a
// deployment would — Figure 14's model plus the Figure 15 partner and the
// 997 variant, served over real TCP loopback sockets through the reliable
// messaging layer, with concurrent partners.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/msg"
)

func TestFullStackOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full stack")
	}
	model, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := core.NewHub(model)
	if err != nil {
		t.Fatal(err)
	}
	// Apply the paper's runtime changes: the Figure 15 partner and 997
	// functional acknowledgments for the EDI partner.
	if _, err := hub.AddPartner(core.Figure15Partner()); err != nil {
		t.Fatal(err)
	}
	fa, err := core.BuildPublicProcessWithFunctionalAck(formats.EDI, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Apply(core.NewTypeVersion{Type: fa}); err != nil {
		t.Fatal(err)
	}
	live := hub.Snapshot().Model

	// Conformance pre-check: each partner's side of the exchange is
	// complementary to the hub's public process.
	for _, p := range live.Protocols() {
		hubSide := live.PublicProcesses[p]
		partnerSide, err := core.BuildPartnerPublicProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := conformance.Check(hubSide, partnerSide); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}

	network := msg.NewTCPNetwork()
	defer network.Close()
	rcfg := msg.ReliableConfig{RetryInterval: 50 * time.Millisecond, MaxAttempts: 40}
	hubEP, err := network.Endpoint("hub")
	if err != nil {
		t.Fatal(err)
	}
	server := core.NewServer(hub, hubEP, core.WithReliableConfig(rcfg))
	defer server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		go server.Serve(ctx, nil)
	}

	sellerParty := doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"}
	const perPartner = 5
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	clients := map[string]*core.Client{}
	for _, p := range live.Partners {
		ep, err := network.Endpoint(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		clients[p.ID] = core.NewClient(p, ep, rcfg, "hub")
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for _, p := range live.Partners {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := clients[p.ID]
			g := doc.NewGenerator(int64(len(p.ID) * 7))
			buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
			for i := 0; i < perPartner; i++ {
				po := g.PO(buyer, sellerParty)
				poa, err := client.RoundTrip(ctx, po)
				if err != nil {
					errCh <- fmt.Errorf("%s order %d: %w", p.ID, i, err)
					return
				}
				if poa.POID != po.ID {
					errCh <- fmt.Errorf("%s order %d: correlation %q != %q", p.ID, i, poa.POID, po.ID)
					return
				}
				if poa.Status != doc.AckAccepted {
					errCh <- fmt.Errorf("%s order %d: status %s", p.ID, i, poa.Status)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The EDI partner received one 997 per order; the others none.
	if got := len(clients["TP1"].FunctionalAcks()); got != perPartner {
		t.Errorf("TP1 received %d functional acks, want %d", got, perPartner)
	}
	if got := len(clients["TP2"].FunctionalAcks()); got != 0 {
		t.Errorf("TP2 received %d functional acks, want 0", got)
	}

	// Routing: TP1 and TP3 → SAP, TP2 → Oracle.
	if got := hub.Systems["SAP"].StoredOrders(); got != 2*perPartner {
		t.Errorf("SAP stored %d, want %d", got, 2*perPartner)
	}
	if got := hub.Systems["Oracle"].StoredOrders(); got != perPartner {
		t.Errorf("Oracle stored %d, want %d", got, perPartner)
	}
}
