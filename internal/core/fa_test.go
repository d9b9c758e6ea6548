package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/msg"
	"repro/internal/wf"
)

// TestFunctionalAck997EndToEnd: enabling 997 functional acknowledgments is
// a local public-process change; afterwards the EDI partner receives a 997
// referencing its interchange before the POA, and the 997 never reaches
// the binding or the private process.
func TestFunctionalAck997EndToEnd(t *testing.T) {
	h := newFig14Hub(t)
	rec, err := h.Apply(NewTypeVersion{Type: functionalAckProcess(t, formats.EDI)})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Local || rec.PrivateTouched || len(rec.TypesModified) != 1 {
		t.Fatalf("record %+v", rec)
	}

	n := msg.NewInProcNetwork(msg.Faults{})
	defer n.Close()
	hubEP, err := n.Endpoint("hub")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(h, hubEP)
	defer server.Close()
	p1, _ := h.Snapshot().Model.PartnerByID("TP1")
	cliEP, err := n.Endpoint("TP1")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(p1, cliEP, msg.ReliableConfig{}, "hub")
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go server.Serve(ctx, nil)

	g := doc.NewGenerator(1)
	po := g.POWithAmount(tp1, seller, 60000)
	poa, err := client.RoundTrip(ctx, po)
	if err != nil {
		t.Fatal(err)
	}
	if poa.POID != po.ID {
		t.Fatal("wrong correlation")
	}

	acks := client.FunctionalAcks()
	if len(acks) != 1 {
		t.Fatalf("client received %d functional acks, want 1", len(acks))
	}
	fa := acks[0]
	if !fa.Accepted || fa.RefGroupID != "PO" || fa.RefControl <= 0 {
		t.Fatalf("functional ack %+v", fa)
	}

	// The 997 stayed inside the public process: the binding and private
	// instances never saw a signal document.
	ex, ok := h.ExchangeByID("ex-000001")
	if !ok {
		t.Fatal("exchange not recorded")
	}
	if len(ex.Signals) != 1 {
		t.Fatalf("exchange signals %d", len(ex.Signals))
	}
	priv, err := h.PrivateInstance(ex)
	if err != nil {
		t.Fatal(err)
	}
	if _, leaked := priv.Data["signal"]; leaked {
		t.Fatal("997 leaked into the private process")
	}
	pub, err := h.Engine.Instance(ex.PublicID)
	if err != nil {
		t.Fatal(err)
	}
	if pub.StepStateOf("Send 997") != wf.StepCompleted {
		t.Fatalf("Send 997 state %s", pub.StepStateOf("Send 997"))
	}
	// The RosettaNet partner is unaffected by the EDI-local change.
	if _, _, err := roundTrip(h, ctx, g.POWithAmount(tp2, seller, 100)); err != nil {
		t.Fatal(err)
	}
}

// TestFunctionalAckInProcess also works without the network front end.
func TestFunctionalAckInProcess(t *testing.T) {
	h := newFig14Hub(t)
	if _, err := h.Apply(NewTypeVersion{Type: functionalAckProcess(t, formats.EDI)}); err != nil {
		t.Fatal(err)
	}
	g := doc.NewGenerator(2)
	po := g.POWithAmount(tp1, seller, 100)
	_, ex, err := roundTrip(h, context.Background(), po)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Signals) != 1 {
		t.Fatalf("signals %d", len(ex.Signals))
	}
}

func TestEnableFunctionalAcksUnknownProtocol(t *testing.T) {
	m, err := PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(NewTypeVersion{Type: functionalAckProcess(t, formats.Format("Ghost"))}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// functionalAckProcess builds the public process variant that returns 997
// functional acknowledgments; the change path assigns its version.
func functionalAckProcess(t *testing.T, p formats.Format) *wf.TypeDef {
	t.Helper()
	fa, err := BuildPublicProcessWithFunctionalAck(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	return fa
}
