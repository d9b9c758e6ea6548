package rosettanet

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/formats/xmltest"
)

var (
	requestPair = xmltest.Pair[PurchaseOrderRequest]{Pkg: "rosettanet",
		Decode: DecodeRequest, RefDecode: refDecode[PurchaseOrderRequest]("Pip3A4PurchaseOrderRequest"),
		Encode: (*PurchaseOrderRequest).Encode, RefEncode: refEncode[PurchaseOrderRequest]}
	confirmationPair = xmltest.Pair[PurchaseOrderConfirmation]{Pkg: "rosettanet",
		Decode: DecodeConfirmation, RefDecode: refDecode[PurchaseOrderConfirmation]("Pip3A4PurchaseOrderConfirmation"),
		Encode: (*PurchaseOrderConfirmation).Encode, RefEncode: refEncode[PurchaseOrderConfirmation]}
	notificationPair = xmltest.Pair[InvoiceNotification]{Pkg: "rosettanet",
		Decode: DecodeInvoiceNotification, RefDecode: refDecode[InvoiceNotification]("Pip3C3InvoiceNotification"),
		Encode: (*InvoiceNotification).Encode, RefEncode: refEncode[InvoiceNotification]}
)

// Random documents. With adversarial set, every field may hold a value the
// decoders cannot produce from a well-formed order (markup, control
// characters, invalid UTF-8, odd numbers); otherwise the values are
// ordinary and the document is valid, a seed for mutations.

func randomRole(r *rand.Rand, adversarial bool, class string) PartnerRole {
	str := func(ok string) string {
		if adversarial {
			return xmltest.Str(r, ok)
		}
		return ok
	}
	return PartnerRole{
		RoleClassification:    str(class),
		BusinessIdentifier:    str("123456789"),
		ProprietaryIdentifier: str("TP2"),
		BusinessName:          str("Acme & Sons <Receiving>"),
	}
}

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

func randomRequest(r *rand.Rand, adversarial bool) *PurchaseOrderRequest {
	str, num, amount := values(r, adversarial)
	q := &PurchaseOrderRequest{
		FromRole: randomRole(r, adversarial, "Buyer"), ToRole: randomRole(r, adversarial, "Seller"),
		DocumentIdentifier: "PO-TP2-" + str("000007"), GenerationDateTime: str(stamp),
		OrderType: str("Standalone"), Currency: str("USD"), DeliverTo: str("Dock 1"), Comment: str("expedite"),
	}
	for i := r.Intn(4); i >= 0; i-- {
		q.LineItems = append(q.LineItems, ProductLineItem{
			LineNumber: num(len(q.LineItems) + 1), ProductIdentifier: "SKU-" + str("001"), ProductDescription: str("Widget"),
			RequestedQuantity:  num(5 + i),
			RequestedUnitPrice: FinancialAmount{Currency: str("USD"), Amount: amount(12.5 * float64(i+1))},
		})
	}
	return q
}

func randomConfirmation(r *rand.Rand, adversarial bool) *PurchaseOrderConfirmation {
	str, num, _ := values(r, adversarial)
	c := &PurchaseOrderConfirmation{
		FromRole: randomRole(r, adversarial, "Seller"), ToRole: randomRole(r, adversarial, "Buyer"),
		DocumentIdentifier: "POA-" + str("000099"), RequestIdentifier: "PO-" + str("000007"),
		GenerationDateTime: str(stamp), StatusCode: "Accept", Comment: str("ok"),
	}
	if adversarial {
		c.StatusCode = xmltest.Str(r, "Pending")
	}
	for i := r.Intn(4); i > 0; i-- {
		c.LineItems = append(c.LineItems, LineStatus{
			LineNumber: num(len(c.LineItems) + 1), StatusCode: []string{"Accept", "Reject", "Backordered"}[r.Intn(3)],
			ConfirmedQuantity: num(10), ScheduledShipDate: str(stamp),
		})
	}
	return c
}

func randomNotification(r *rand.Rand, adversarial bool) *InvoiceNotification {
	str, num, amount := values(r, adversarial)
	n := &InvoiceNotification{
		FromRole: randomRole(r, adversarial, "Seller"), ToRole: randomRole(r, adversarial, "Buyer"),
		DocumentIdentifier: "INV-" + str("000042"), PurchaseOrderReference: "PO-" + str("000007"),
		GenerationDateTime: str(stamp), PaymentDueDate: str(stamp), Currency: str("USD"), Comment: str("net 30"),
	}
	for i := r.Intn(4); i >= 0; i-- {
		n.LineItems = append(n.LineItems, InvoiceLineItem{
			LineNumber: num(len(n.LineItems) + 1), ProductIdentifier: "SKU-" + str("001"), ProductDescription: str("Widget"),
			InvoiceQuantity: num(3), UnitPrice: FinancialAmount{Currency: str("USD"), Amount: amount(480.25)},
		})
	}
	return n
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
		{"3A4 request", func() ([]byte, error) { return randomRequest(r, false).Encode() }, requestPair.CheckDecode,
			func() { requestPair.CheckEncode(t, randomRequest(r, true)) }},
		{"3A4 confirmation", func() ([]byte, error) { return randomConfirmation(r, false).Encode() }, confirmationPair.CheckDecode,
			func() { confirmationPair.CheckEncode(t, randomConfirmation(r, true)) }},
		{"3C3 notification", func() ([]byte, error) { return randomNotification(r, false).Encode() }, notificationPair.CheckDecode,
			func() { notificationPair.CheckEncode(t, randomNotification(r, true)) }},
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
