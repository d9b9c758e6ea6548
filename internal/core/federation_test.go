package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/doc"
	"repro/internal/formats"
)

// A submission whose owner peer is unreachable is parked, never dropped —
// a wire PO with no partner hint included: it parks under its protocol as
// a typed ErrPeerUnavailable and, once resubmitted, decodes and completes.
// A request naming a partner the model does not know still fails with
// ErrUnknownPartner.
func TestParkRequestWirePOWithoutHint(t *testing.T) {
	ctx := context.Background()
	h := newFig14Hub(t)
	wire := wirePO(t, h, formats.EDI, doc.NewGenerator(33).PO(tp1, seller))

	res, err := h.ParkRequest(Request{Kind: DocWirePO, Protocol: formats.EDI, Wire: wire}, nil)
	var ee *ExchangeError
	if !errors.Is(err, ErrPeerUnavailable) || !errors.As(err, &ee) {
		t.Fatalf("ParkRequest err = %v, want a typed ErrPeerUnavailable", err)
	}
	if _, ok := h.ExchangeByID(res.Exchange.ID); !ok {
		t.Fatalf("parked exchange %s has no record", res.Exchange.ID)
	}
	dls := h.DeadLetters()
	if len(dls) != 1 || dls[0].ExchangeID != res.Exchange.ID || dls[0].Protocol != formats.EDI || dls[0].Partner != "" {
		t.Fatalf("dead letters %+v, want the request parked under its protocol", dls)
	}
	ex, err := h.Resubmit(ctx, dls[0].ExchangeID)
	if err != nil {
		t.Fatalf("resubmit parked wire PO: %v", err)
	}
	if ex.Partner.ID != tp1.ID {
		t.Fatalf("resubmitted exchange partner %q, want %s decoded from the document", ex.Partner.ID, tp1.ID)
	}
	if n := h.Systems["SAP"].StoredOrders(); n != 1 {
		t.Fatalf("backend stored %d orders, want 1", n)
	}

	_, err = h.ParkRequest(Request{Kind: DocWirePO, Protocol: formats.EDI, Wire: wire, PartnerID: "TP9"}, nil)
	if !errors.Is(err, ErrUnknownPartner) {
		t.Fatalf("ParkRequest for an unknown partner: %v, want ErrUnknownPartner", err)
	}
	if n := len(h.DeadLetters()); n != 0 {
		t.Fatalf("unknown partner parked %d dead letters, want 0", n)
	}
}
