package oagis

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/formats/xmltest"
)

var (
	processPOPair = xmltest.Pair[ProcessPurchaseOrder]{Pkg: "oagis",
		Decode: DecodeProcessPO, RefDecode: refDecode[ProcessPurchaseOrder]("ProcessPurchaseOrder"),
		Encode: (*ProcessPurchaseOrder).Encode, RefEncode: refEncode[ProcessPurchaseOrder]}
	acknowledgePOPair = xmltest.Pair[AcknowledgePurchaseOrder]{Pkg: "oagis",
		Decode: DecodeAcknowledgePO, RefDecode: refDecode[AcknowledgePurchaseOrder]("AcknowledgePurchaseOrder"),
		Encode: (*AcknowledgePurchaseOrder).Encode, RefEncode: refEncode[AcknowledgePurchaseOrder]}
	processInvoicePair = xmltest.Pair[ProcessInvoice]{Pkg: "oagis",
		Decode: DecodeProcessInvoice, RefDecode: refDecode[ProcessInvoice]("ProcessInvoice"),
		Encode: (*ProcessInvoice).Encode, RefEncode: refEncode[ProcessInvoice]}
)

// Random documents. With adversarial set, every field may hold a value the
// decoders cannot produce from a well-formed order (markup, control
// characters, invalid UTF-8, odd numbers); otherwise the values are
// ordinary and the document is valid, a seed for mutations.

// values returns the field value generators of one random document.
func values(r *rand.Rand, adversarial bool) (str func(string) string, num func(int) int, amount func(float64) float64) {
	str = func(ok string) string {
		if adversarial {
			return xmltest.Str(r, ok)
		}
		if r.Intn(4) == 0 {
			return "" // an omitempty field left out, or a required one missing
		}
		return ok
	}
	num = func(ok int) int {
		if adversarial {
			return xmltest.Int(r, ok)
		}
		return ok
	}
	amount = func(ok float64) float64 {
		if adversarial {
			return xmltest.Float(r, ok)
		}
		return ok
	}
	return str, num, amount
}

var stamp = FormatTime(time.Date(2001, 9, 3, 9, 0, 0, 0, time.UTC))

func randomArea(str func(string) string) ApplicationArea {
	return ApplicationArea{SenderID: "TP" + str("3"), ReceiverID: str("HUB"), CreationDateTime: str(stamp), BODID: "BOD-" + str("0001")}
}

func randomParty(str func(string) string, id string) PartyOAGIS {
	return PartyOAGIS{PartyID: str(id), Name: str("Gamma & Sons <LLC>"), DUNS: str("111222333")}
}

func randomProcessPO(r *rand.Rand, adversarial bool) *ProcessPurchaseOrder {
	str, num, amount := values(r, adversarial)
	b := &ProcessPurchaseOrder{ApplicationArea: randomArea(str), PurchaseOrder: PurchaseOrderNoun{
		DocumentID: "PO-TP3-" + str("000003"), DocumentDate: str(stamp), Currency: str("USD"),
		CustomerParty: randomParty(str, "TP3"), SupplierParty: randomParty(str, "HUB"),
		ShipToAddress: str("Gamma Dock 4"), Note: str("standing order"),
	}}
	for i := r.Intn(4); i >= 0; i-- {
		b.PurchaseOrder.Lines = append(b.PurchaseOrder.Lines, POLine{
			LineNumber: num(len(b.PurchaseOrder.Lines) + 1), ItemID: "SKU-" + str("001"), Description: str("SSD"),
			Quantity: num(100), UnitPrice: amount(119.5), Currency: str("USD"),
		})
	}
	return b
}

func randomAcknowledgePO(r *rand.Rand, adversarial bool) *AcknowledgePurchaseOrder {
	str, num, _ := values(r, adversarial)
	b := &AcknowledgePurchaseOrder{ApplicationArea: randomArea(str), PurchaseOrder: AcknowledgePurchaseOrderNoun{
		DocumentID: "POA-" + str("000044"), OriginalPOID: "PO-" + str("000003"), DocumentDate: str(stamp),
		StatusCode: "Accepted", CustomerParty: randomParty(str, "TP3"), SupplierParty: randomParty(str, "HUB"),
		Note: str("partial"),
	}}
	if adversarial {
		b.PurchaseOrder.StatusCode = xmltest.Str(r, "Partial")
	}
	for i := r.Intn(4); i > 0; i-- {
		b.PurchaseOrder.Lines = append(b.PurchaseOrder.Lines, AckLine{
			LineNumber: num(len(b.PurchaseOrder.Lines) + 1), StatusCode: []string{"Accepted", "Rejected", "Backordered"}[r.Intn(3)],
			Quantity: num(25), ShipDate: str(stamp),
		})
	}
	return b
}

func randomProcessInvoice(r *rand.Rand, adversarial bool) *ProcessInvoice {
	str, num, amount := values(r, adversarial)
	b := &ProcessInvoice{ApplicationArea: randomArea(str), Invoice: InvoiceNoun{
		DocumentID: "INV-" + str("000042"), OriginalPOID: "PO-" + str("000003"), DocumentDate: str(stamp),
		PaymentDue: str(stamp), Currency: str("USD"), CustomerParty: randomParty(str, "TP3"),
		SupplierParty: randomParty(str, "HUB"), Note: str("net 30"),
	}}
	for i := r.Intn(4); i >= 0; i-- {
		b.Invoice.Lines = append(b.Invoice.Lines, InvoiceLine{
			LineNumber: num(len(b.Invoice.Lines) + 1), ItemID: "SKU-" + str("001"), Description: str("SSD"),
			Quantity: num(100), UnitPrice: amount(119), Currency: str("USD"),
		})
	}
	return b
}

// TestCodecMatchesReference decodes seeded mutations of generated documents
// with the codec and its encoding/xml reference: the verdicts, the decoded
// documents and the re-encoded bytes must agree. It then encodes random
// documents with adversarial field values with both.
func TestCodecMatchesReference(t *testing.T) {
	const perType = 7000
	r := rand.New(rand.NewSource(20010903))
	type target struct {
		name   string
		seed   func() ([]byte, error)
		check  func(testing.TB, []byte) bool
		encode func()
	}
	for _, tg := range []target{
		{"ProcessPurchaseOrder", func() ([]byte, error) { return randomProcessPO(r, false).Encode() }, processPOPair.CheckDecode,
			func() { processPOPair.CheckEncode(t, randomProcessPO(r, true)) }},
		{"AcknowledgePurchaseOrder", func() ([]byte, error) { return randomAcknowledgePO(r, false).Encode() }, acknowledgePOPair.CheckDecode,
			func() { acknowledgePOPair.CheckEncode(t, randomAcknowledgePO(r, true)) }},
		{"ProcessInvoice", func() ([]byte, error) { return randomProcessInvoice(r, false).Encode() }, processInvoicePair.CheckDecode,
			func() { processInvoicePair.CheckEncode(t, randomProcessInvoice(r, true)) }},
	} {
		accepted := 0
		for i := 0; i < perType; {
			doc, err := tg.seed()
			if err != nil {
				continue // an invalid random document: nothing to mutate
			}
			i++
			for n := 1 + r.Intn(3); n > 0; n-- {
				doc = xmltest.Mutate(r, doc)
			}
			if tg.check(t, doc) {
				accepted++
			}
		}
		for i := 0; i < perType/5; i++ {
			tg.encode()
		}
		t.Logf("%s: %d of %d mutations decoded", tg.name, accepted, perType)
		if accepted < perType/20 || accepted > perType*19/20 {
			t.Errorf("%s: %d of %d mutations decoded; the mutator no longer reaches both outcomes", tg.name, accepted, perType)
		}
	}
}
