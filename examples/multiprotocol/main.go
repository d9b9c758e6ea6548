// Multiprotocol: the Figure 14 → Figure 15 scenario. The hub starts with
// two partners (EDI→SAP, RosettaNet→Oracle), serves them over the
// simulated network through the reliable-messaging layer, then adds a
// third partner using a third protocol (OAGIS) at runtime — and shows that
// the change touched only a new public process, a new binding and one
// business rule, never the private process.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/wf"
)

func main() {
	model, err := core.PaperFigure14Model()
	if err != nil {
		log.Fatal(err)
	}
	hub, err := core.NewHub(model)
	if err != nil {
		log.Fatal(err)
	}

	// Wire the hub and the partners over a slightly lossy network.
	network := msg.NewInProcNetwork(msg.Faults{LossProb: 0.1, Seed: 42})
	defer network.Close()
	rcfg := msg.ReliableConfig{RetryInterval: 20 * time.Millisecond, MaxAttempts: 40}
	hubEP, err := network.Endpoint("hub")
	if err != nil {
		log.Fatal(err)
	}
	server := core.NewServer(hub, hubEP, core.WithReliableConfig(rcfg))
	defer server.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	go server.Serve(ctx, nil)

	newClient := func(p core.TradingPartner) *core.Client {
		ep, err := network.Endpoint(p.ID)
		if err != nil {
			log.Fatal(err)
		}
		return core.NewClient(p, ep, rcfg, "hub")
	}

	g := doc.NewGenerator(7)
	sellerParty := doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"}
	exchange := func(c *core.Client, buyer doc.Party, amount float64) {
		po := g.POWithAmount(buyer, sellerParty, amount)
		poa, err := c.RoundTrip(ctx, po)
		if err != nil {
			log.Fatalf("%s: %v", buyer.ID, err)
		}
		fmt.Printf("  %-4s %-12s amount %9.2f → POA %s (%s)\n",
			buyer.ID, c.Partner.Protocol, amount, poa.ID, poa.Status)
	}

	fmt.Println("== Figure 14: two partners, two protocols, two back ends ==")
	tp1, _ := model.PartnerByID("TP1")
	tp2, _ := model.PartnerByID("TP2")
	c1, c2 := newClient(tp1), newClient(tp2)
	defer c1.Close()
	defer c2.Close()
	exchange(c1, doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}, 60000) // approved
	exchange(c1, doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}, 900)   // no approval
	exchange(c2, doc.Party{ID: "TP2", Name: "Trading Partner 2", DUNS: "222222222"}, 45000) // approved

	fmt.Println("\n== Figure 15: add TP3 (OAGIS → SAP, threshold 10000) at runtime ==")
	before := cloneTypes(model.AllTypes())
	rec, err := hub.AddPartner(core.Figure15Partner())
	if err != nil {
		log.Fatal(err)
	}
	impact := metrics.Diff(before, hub.Snapshot().Model.AllTypes())
	fmt.Printf("  change: %s\n", rec.Description)
	fmt.Printf("  types added:    %v\n", impact.Added)
	fmt.Printf("  types modified: %v\n", impact.Modified)
	fmt.Printf("  types untouched: %d (private process among them: %v)\n",
		impact.Untouched, !rec.PrivateTouched)
	fmt.Printf("  business rules added: %d\n", rec.RulesAdded)

	tp3, _ := hub.Snapshot().Model.PartnerByID("TP3")
	c3 := newClient(tp3)
	defer c3.Close()
	exchange(c3, doc.Party{ID: "TP3", Name: "Trading Partner 3", DUNS: "333333333"}, 15000) // approved at 10000

	fmt.Println("\n== One-way invoices: the outbound flow (new private process) ==")
	rec2, err := hub.EnableInvoicing()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  change: %s → %d types added, 0 modified, %d rules added\n",
		rec2.Description, len(rec2.TypesAdded), rec2.RulesAdded)
	po := g.POWithAmount(doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}, sellerParty, 70000)
	if _, err := c1.RoundTrip(ctx, po); err != nil {
		log.Fatal(err)
	}
	if _, err := server.PushInvoice(ctx, "TP1", po.ID); err != nil {
		log.Fatal(err)
	}
	inv, err := c1.ReceiveInvoice(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  TP1 received invoice %s for %s: %.2f %s (due %s)\n",
		inv.ID, inv.POID, inv.Amount(), inv.Currency, inv.DueAt.Format("2006-01-02"))

	bs, ss := c1.Stats(), server.Stats()
	fmt.Printf("\nreliable messaging: client TP1 sent %d (retries %d); hub delivered %d, suppressed %d duplicates\n",
		bs.Sent, bs.Retries, ss.Delivered, ss.Duplicates)
	fmt.Printf("back ends: SAP=%d orders, Oracle=%d orders\n",
		hub.Systems["SAP"].StoredOrders(), hub.Systems["Oracle"].StoredOrders())
}

func cloneTypes(defs []*wf.TypeDef) []*wf.TypeDef {
	out := make([]*wf.TypeDef, len(defs))
	for i, d := range defs {
		out[i] = d.Clone()
	}
	return out
}
