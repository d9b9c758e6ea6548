package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/transform"
)

// gate is the correctness gate: a run that fails any check reports no
// metrics.
type gate struct {
	failures []string
}

// maxFailures bounds how many failed checks a run lists.
const maxFailures = 10

func (g *gate) fail(format string, args ...any) {
	if len(g.failures) < maxFailures {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// decoder turns protocol-native wire documents into normalized ones.
type decoder struct {
	codecs *formats.Registry
	reg    *transform.Registry
}

func newDecoder() decoder {
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	return decoder{codecs: core.NewCodecRegistry(), reg: reg}
}

// native decodes wire with the protocol's codec for the document type.
func (d decoder) native(protocol formats.Format, t doc.DocType, wire []byte) (any, error) {
	codec, err := d.codecs.Lookup(protocol, t)
	if err != nil {
		return nil, err
	}
	return codec.Decode(wire)
}

// normalized decodes wire and transforms it to the normalized model.
func (d decoder) normalized(protocol formats.Format, t doc.DocType, wire []byte) (any, error) {
	n, err := d.native(protocol, t, wire)
	if err != nil {
		return nil, err
	}
	return d.reg.ToNormalized(protocol, t, n)
}

// checkResults runs every check that needs the live system and the
// results:
//   - every acked PO's POA carries its PO ID and line count;
//   - every wire POA decodes with its partner's POA codec;
//   - each invoice bills a distinct PO, and the back end no longer holds
//     that PO's billing document (billing consumes it);
//   - each back end's StoredOrders equals the acked POs routed to it;
//   - the hubs' failure counts equal the benchmark's own.
func (g *gate) checkResults(reqs []*request, outs []outcome, rg *rig) {
	dec := newDecoder()
	failed := 0
	acked := map[string]int{}
	billed := map[string]bool{}
	for _, r := range reqs {
		i := r.idx
		res := outs[i].res
		if res.err != nil {
			failed++
			continue
		}
		switch r.kind {
		case core.DocPO, core.DocWirePO:
			poa := res.poa
			if r.kind == core.DocWirePO {
				n, err := dec.normalized(r.protocol, doc.TypePOA, res.wire)
				if err != nil {
					g.fail("request %d: %s POA does not decode: %v", i, r.protocol, err)
					continue
				}
				poa, _ = n.(*doc.PurchaseOrderAck)
			}
			switch {
			case poa == nil:
				g.fail("request %d: PO %s acked without a POA", i, r.po.ID)
			case poa.POID != r.po.ID:
				g.fail("request %d: POA answers %s, want %s", i, poa.POID, r.po.ID)
			case len(poa.Lines) != len(r.po.Lines):
				g.fail("request %d: POA for %s has %d lines, want %d", i, r.po.ID, len(poa.Lines), len(r.po.Lines))
			}
			acked[r.backend]++
		case core.DocInvoice:
			n, err := dec.normalized(r.protocol, doc.TypeINV, res.wire)
			if err != nil {
				g.fail("request %d: %s invoice does not decode: %v", i, r.protocol, err)
				continue
			}
			inv, _ := n.(*doc.Invoice)
			want := r.core.POID
			switch {
			case inv == nil || inv.POID != want:
				g.fail("request %d: invoice does not bill %s", i, want)
			case billed[want]:
				g.fail("request %d: PO %s billed twice", i, want)
			}
			billed[want] = true
		}
	}
	ctx := context.Background()
	for poID := range billed {
		for _, h := range rg.hubs {
			for name, sys := range h.Systems {
				if _, ok, _ := sys.ExtractInvoiceByPO(ctx, poID); ok {
					g.fail("back end %s still holds the billing document of %s after it was invoiced", name, poID)
				}
			}
		}
	}
	stored := map[string]int{}
	var hubFailed int64
	for _, h := range rg.hubs {
		for name, sys := range h.Systems {
			stored[name] += sys.StoredOrders()
		}
		hubFailed += h.Status().Exchanges.Failed
	}
	for name, n := range stored {
		if n != acked[name] {
			g.fail("back end %s stored %d orders, %d acked POs were routed to it", name, n, acked[name])
		}
	}
	if hubFailed != int64(failed) {
		g.fail("hubs count %d failed exchanges, the benchmark counted %d", hubFailed, failed)
	}
}

// checkDrained checks that no journaled admission is left pending once the
// hubs have drained.
func (g *gate) checkDrained(rg *rig) {
	for i, h := range rg.hubs {
		if st := h.Status(); st.Journal.Enabled && st.Journal.PendingAdmits != 0 {
			g.fail("hub %d: %d journaled admissions pending after drain", i, st.Journal.PendingAdmits)
		}
	}
}
