package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/wf"
)

// TestEnableInvoicingIsAdditive: enabling the invoice flow is the Section
// 4.6 "adding a new private process" change — new artifacts, zero modified.
func TestEnableInvoicingIsAdditive(t *testing.T) {
	m, err := PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	before := make([]*wf.TypeDef, 0)
	for _, d := range m.AllTypes() {
		before = append(before, d.Clone())
	}
	rec, err := m.Apply(EnableInvoicing{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Local {
		t.Fatalf("record %+v", rec)
	}
	// 1 private + 2 protocols × (public + binding) + 2 app bindings = 7.
	if len(rec.TypesAdded) != 7 {
		t.Fatalf("types added %v", rec.TypesAdded)
	}
	if rec.RulesAdded != 2 {
		t.Fatalf("rules added %d", rec.RulesAdded)
	}
	impact := metrics.Diff(before, m.AllTypes())
	if len(impact.Modified) != 0 || len(impact.Added) != 7 || impact.Untouched != len(before) {
		t.Fatalf("impact %+v", impact)
	}
	// Double enablement is rejected.
	if _, err := m.Apply(EnableInvoicing{}); err == nil {
		t.Fatal("double enablement accepted")
	}
}

// TestInvoiceFlowEndToEnd: PO round trip, then the one-way invoice for the
// fulfilled order through the outbound chain.
func TestInvoiceFlowEndToEnd(t *testing.T) {
	h := newFig14Hub(t)
	if _, err := h.EnableInvoicing(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g := doc.NewGenerator(1)

	po := g.POWithAmount(tp1, seller, 60000)
	if _, _, err := roundTrip(h, ctx, po); err != nil {
		t.Fatal(err)
	}

	wire, ex, err := invoiceFor(h, ctx, "TP1", po.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) == 0 {
		t.Fatal("empty invoice wire")
	}
	// The wire is a valid EDI 810 referencing the PO, with the billed
	// amount equal to the accepted order amount.
	codec, err := h.codecs.Lookup(ex.Protocol, doc.TypeINV)
	if err != nil {
		t.Fatal(err)
	}
	native, err := codec.Decode(wire)
	if err != nil {
		t.Fatalf("outbound invoice not decodable: %v\n%s", err, wire)
	}
	nd, err := h.reg.ToNormalized(ex.Protocol, doc.TypeINV, native)
	if err != nil {
		t.Fatal(err)
	}
	inv := nd.(*doc.Invoice)
	if inv.POID != po.ID {
		t.Fatalf("invoice references %q, want %q", inv.POID, po.ID)
	}
	if inv.Amount() != po.Amount() {
		t.Fatalf("invoice amount %v, order amount %v", inv.Amount(), po.Amount())
	}
	// Review rule ran (60000 >= 55000 threshold).
	priv, err := h.Engine.Instance(ex.PrivateID)
	if err != nil {
		t.Fatal(err)
	}
	if priv.Data["reviewNeeded"] != true || priv.Data["reviewed"] != true {
		t.Fatalf("review not run: %v", priv.Data)
	}
	joined := strings.Join(h.Trace(ex.ID), ";")
	for _, want := range []string{
		"application binding → invoice private process",
		"invoice private process → binding",
		"invoice binding → public",
		"public → network",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %q: %v", want, h.Trace(ex.ID))
		}
	}
	// A second invoice for the same order is not available.
	if _, _, err := invoiceFor(h, ctx, "TP1", po.ID); err == nil {
		t.Fatal("double billing accepted")
	}
}

func TestInvoiceSmallOrderNoReview(t *testing.T) {
	h := newFig14Hub(t)
	if _, err := h.EnableInvoicing(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g := doc.NewGenerator(2)
	po := g.POWithAmount(tp2, seller, 900) // RosettaNet partner, below threshold
	if _, _, err := roundTrip(h, ctx, po); err != nil {
		t.Fatal(err)
	}
	_, ex, err := invoiceFor(h, ctx, "TP2", po.ID)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := h.Engine.Instance(ex.PrivateID)
	if err != nil {
		t.Fatal(err)
	}
	if priv.Data["reviewNeeded"] != false {
		t.Fatal("small invoice should not need review")
	}
	if priv.StepStateOf("Review invoice") != wf.StepSkipped {
		t.Fatalf("review step state %s", priv.StepStateOf("Review invoice"))
	}
}

func TestInvoiceErrors(t *testing.T) {
	h := newFig14Hub(t)
	ctx := context.Background()
	// Not enabled.
	if _, _, err := invoiceFor(h, ctx, "TP1", "PO-X"); err == nil {
		t.Fatal("invoicing disabled but SendInvoice succeeded")
	}
	if _, err := h.EnableInvoicing(); err != nil {
		t.Fatal(err)
	}
	// Unknown partner.
	if _, _, err := invoiceFor(h, ctx, "GHOST", "PO-X"); err == nil {
		t.Fatal("unknown partner accepted")
	}
	// Unbilled order.
	if _, _, err := invoiceFor(h, ctx, "TP1", "PO-NEVER-PLACED"); err == nil {
		t.Fatal("unbilled order accepted")
	}
}

// TestInvoicePushOverNetwork: the server pushes the one-way invoice to the
// partner over the reliable network; the client receives it.
func TestInvoicePushOverNetwork(t *testing.T) {
	h := newFig14Hub(t)
	if _, err := h.EnableInvoicing(); err != nil {
		t.Fatal(err)
	}
	n := msg.NewInProcNetwork(msg.Faults{LossProb: 0.15, Seed: 31})
	defer n.Close()
	rcfg := msg.ReliableConfig{RetryInterval: 10 * time.Millisecond, MaxAttempts: 60}
	hubEP, err := n.Endpoint("hub")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(h, hubEP, WithReliableConfig(rcfg))
	defer server.Close()
	p1, _ := h.Snapshot().Model.PartnerByID("TP1")
	cliEP, err := n.Endpoint("TP1")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(p1, cliEP, rcfg, "hub")
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go server.Serve(ctx, nil)

	g := doc.NewGenerator(3)
	po := g.PO(tp1, seller)
	poa, err := client.RoundTrip(ctx, po)
	if err != nil {
		t.Fatal(err)
	}
	if poa.POID != po.ID {
		t.Fatal("wrong correlation")
	}
	if _, err := server.PushInvoice(ctx, "TP1", po.ID); err != nil {
		t.Fatal(err)
	}
	inv, err := client.ReceiveInvoice(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if inv.POID != po.ID {
		t.Fatalf("invoice references %q, want %q", inv.POID, po.ID)
	}
	if inv.Amount() != po.Amount() {
		t.Fatalf("invoice amount %v != order amount %v", inv.Amount(), po.Amount())
	}
}
