package formats_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/formats/edi"
	"repro/internal/formats/oagis"
	"repro/internal/formats/rosettanet"
	"repro/internal/formats/sapidoc"
	"repro/internal/transform"
)

// TestDecodedDocumentsDoNotPinInput decodes generated documents and keeps
// only each normalized document's ID, as a back end's duplicate guard or
// the hub's exchange record does. What stays live per kept ID must be less
// than half the wire document: a decoded string that is a window of the
// input (or of a copy of all of it) would keep the markup alive with it.
// Not parallel: it reads the live heap.
func TestDecodedDocumentsDoNotPinInput(t *testing.T) {
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	buyer := doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}
	seller := doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"}
	for _, c := range []struct {
		name  string
		codec formats.Codec
		dt    doc.DocType
	}{
		{"PIP 3A4 request", rosettanet.POCodec{}, doc.TypePO},
		{"PIP 3A4 confirmation", rosettanet.POACodec{}, doc.TypePOA},
		{"PIP 3C3 notification", rosettanet.INVCodec{}, doc.TypeINV},
		{"OAGIS ProcessPurchaseOrder", oagis.POCodec{}, doc.TypePO},
		{"OAGIS AcknowledgePurchaseOrder", oagis.POACodec{}, doc.TypePOA},
		{"OAGIS ProcessInvoice", oagis.INVCodec{}, doc.TypeINV},
		{"IDoc ORDERS", sapidoc.POCodec{}, doc.TypePO},
		{"IDoc ORDRSP", sapidoc.POACodec{}, doc.TypePOA},
		{"IDoc INVOIC", sapidoc.INVCodec{}, doc.TypeINV},
		{"X12 850", edi.POCodec{}, doc.TypePO},
		{"X12 855", edi.POACodec{}, doc.TypePOA},
		{"X12 810", edi.INVCodec{}, doc.TypeINV},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 10000
			g := doc.NewGenerator(1)
			// wire encodes the i-th generated document of the codec's type;
			// every ID is 13 bytes.
			wire := func(i int) []byte {
				po := g.PO(buyer, seller)
				var normalized any = po
				poa := doc.AckFor(po, fmt.Sprintf("POA-%09d", i))
				switch c.dt {
				case doc.TypePOA:
					normalized = poa
				case doc.TypeINV:
					inv, err := doc.InvoiceFor(po, poa, fmt.Sprintf("INV-%09d", i))
					if err != nil {
						t.Fatal(err)
					}
					normalized = inv
				}
				native, err := reg.FromNormalized(c.codec.Format(), c.dt, normalized)
				if err != nil {
					t.Fatal(err)
				}
				data, err := c.codec.Encode(native)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			ids := make([]string, n)
			wireBytes := 0
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range ids {
				data := wire(i)
				wireBytes += len(data)
				native, err := c.codec.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				normalized, err := reg.ToNormalized(c.codec.Format(), c.dt, native)
				if err != nil {
					t.Fatal(err)
				}
				switch d := normalized.(type) {
				case *doc.PurchaseOrder:
					ids[i] = d.ID
				case *doc.PurchaseOrderAck:
					ids[i] = d.ID
				case *doc.Invoice:
					ids[i] = d.ID
				default:
					t.Fatalf("normalized %T", normalized)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(ids)
			perID := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
			meanWire := float64(wireBytes) / n
			t.Logf("%.0f B live per kept %d-byte ID; wire document %.0f B", perID, len(ids[0]), meanWire)
			if perID >= meanWire/2 {
				t.Errorf("%.0f B stay live per kept ID, at least half the %.0f B wire document: decoded strings pin the input", perID, meanWire)
			}
		})
	}
}
