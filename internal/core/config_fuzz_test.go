package core

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/cfgstore"
	"repro/internal/doc"
	"repro/internal/formats"
)

// FuzzConfigRecordDecode feeds arbitrary payloads through decodeChange, the
// decoder a restarted hub reads its journaled changes with (the same
// harness shape as internal/journal.FuzzDecode). Two rules hold on any
// input:
//
//  1. decoding returns either an error or a change, never both and never
//     a panic;
//  2. applying a decoded change to a fresh Figure 14 hub either returns an
//     error or leaves a hub that still serves a TP1 order: the order
//     completes while TP1 is a partner, and fails with ErrUnknownPartner
//     once the change removed TP1. A change that installs a workflow body
//     of its own on TP1's route (a new type version or a canary candidate)
//     holds the hub to answering the order, not to the body's business
//     outcome.
func FuzzConfigRecordDecode(f *testing.F) {
	seed := func(kind string, body any) []byte {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(changeEntry{Kind: kind, Change: raw})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	binding, err := BuildBinding(formats.EDI)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"kind":"promote","change":{}}`))
	f.Add(seed(AddPartner{}.kind(), AddPartner{Partner: Figure15Partner()}))
	f.Add(seed(RemovePartner{}.kind(), RemovePartner{ID: "TP2"}))
	f.Add(seed(AddBackend{}.kind(), AddBackend{Backend: Backend{Name: "SAP2", Format: formats.SAPIDoc}}))
	f.Add(seed(ChangeThreshold{}.kind(), ChangeThreshold{PartnerID: "TP1", Threshold: 70000}))
	f.Add(seed(NewTypeVersion{}.kind(), NewTypeVersion{Type: binding}))
	f.Add(seed(SwapTransform{}.kind(), transformRef{Key: xformKey(formats.EDI, formats.Normalized, doc.TypePO), Version: 2}))
	f.Add(seed(EnableInvoicing{}.kind(), EnableInvoicing{}))
	f.Add(seed(Rollback{}.kind(), Rollback{Class: cfgstore.ClassRules, Name: ApprovalRuleSet, Version: 1}))
	f.Add(seed(Canary{}.kind(), Canary{Partner: "TP1", Candidate: binding, Fraction: 0.5}))
	f.Add(seed(SettleCanary{}.kind(), SettleCanary{Partner: "TP1", Verdict: cfgstore.CanaryPromote}))

	tp1 := doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}
	hubParty := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeChange(data)
		if (c == nil) == (err == nil) {
			t.Fatalf("decode returned change %v and error %v", c, err)
		}
		if err != nil {
			return
		}
		m, err := PaperFigure14Model()
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHub(m)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Drain(context.Background())
		if _, err := h.Apply(c); err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		po := doc.NewGenerator(1).PO(tp1, hubParty)
		_, err = h.Do(ctx, Request{Kind: DocPO, PO: po})
		_, partner := h.Snapshot().Model.PartnerByID("TP1")
		switch c.(type) {
		case NewTypeVersion, Canary:
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: the hub did not answer a TP1 order: %v", c.kind(), err)
			}
		default:
			if partner && err != nil {
				t.Fatalf("%s: TP1 order failed after the change: %v", c.kind(), err)
			}
			if !partner && !errors.Is(err, ErrUnknownPartner) {
				t.Fatalf("%s removed TP1, but its order got %v", c.kind(), err)
			}
		}
	})
}
