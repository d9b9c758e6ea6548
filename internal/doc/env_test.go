package doc

import (
	"errors"
	"sort"
	"testing"
)

// TestEnvPaths pins the rule environment of every document type Env
// accepts: each path it defines, with its value and Go type, and that no
// other type's path leaks into it.
func TestEnvPaths(t *testing.T) {
	buyer := Party{ID: "TP1", Name: "Acme"}
	seller := Party{ID: "HUB", Name: "Widget"}
	po := &PurchaseOrder{
		ID: "PO-1", Buyer: buyer, Seller: seller, Currency: "USD", ShipTo: "Dock 4",
		Lines: []Line{
			{Number: 1, SKU: "A", Quantity: 2, UnitPrice: 10.25},
			{Number: 2, SKU: "B", Quantity: 1, UnitPrice: 100},
		},
	}
	poa := &PurchaseOrderAck{
		ID: "POA-1", POID: "PO-1", Buyer: buyer, Seller: seller, Status: AckPartial,
		Lines: []AckLine{{}, {}, {}},
	}
	rfq := &RequestForQuote{ID: "RFQ-1", Buyer: buyer, SKU: "LAP-100", Quantity: 7}
	inv := &Invoice{
		ID: "INV-1", POID: "PO-1", Buyer: buyer, Seller: seller, Currency: "EUR",
		Lines: []InvoiceLine{{Number: 1, Quantity: 3, UnitPrice: 1.1}},
	}
	qt := &Quote{ID: "Q-1", RFQID: "RFQ-1", Supplier: seller, UnitPrice: 9.5, LeadTimeDays: 4}

	cases := []struct {
		name     string
		document any
		want     map[string]any
	}{
		{"PurchaseOrder", po, map[string]any{
			"source":            "TP1",
			"target":            "SAP",
			"document.type":     "PurchaseOrder",
			"document.id":       "PO-1",
			"document.amount":   120.5,
			"document.currency": "USD",
			"document.buyer":    "TP1",
			"document.seller":   "HUB",
			"document.lines":    2.0,
			"document.shipTo":   "Dock 4",
			"PO.amount":         120.5,
			"PO.id":             "PO-1",
		}},
		{"PurchaseOrderAck", poa, map[string]any{
			"source":          "TP1",
			"target":          "SAP",
			"document.type":   "PurchaseOrderAck",
			"document.id":     "POA-1",
			"document.poId":   "PO-1",
			"document.status": "partial",
			"document.buyer":  "TP1",
			"document.seller": "HUB",
			"document.lines":  3.0,
			"POA.status":      "partial",
			"POA.id":          "POA-1",
		}},
		{"RequestForQuote", rfq, map[string]any{
			"source":            "TP1",
			"target":            "SAP",
			"document.type":     "RequestForQuote",
			"document.id":       "RFQ-1",
			"document.sku":      "LAP-100",
			"document.quantity": 7.0,
			"document.buyer":    "TP1",
			"RFQ.quantity":      7.0,
		}},
		{"Invoice", inv, map[string]any{
			"source":            "TP1",
			"target":            "SAP",
			"document.type":     "Invoice",
			"document.id":       "INV-1",
			"document.poId":     "PO-1",
			"document.amount":   3.3,
			"document.currency": "EUR",
			"document.buyer":    "TP1",
			"document.seller":   "HUB",
			"document.lines":    1.0,
			"Invoice.amount":    3.3,
			"Invoice.id":        "INV-1",
		}},
		{"Quote", qt, map[string]any{
			"source":                "TP1",
			"target":                "SAP",
			"document.type":         "Quote",
			"document.id":           "Q-1",
			"document.rfqId":        "RFQ-1",
			"document.unitPrice":    9.5,
			"document.leadTimeDays": 4.0,
			"document.supplier":     "HUB",
			"Quote.unitPrice":       9.5,
			"Quote.leadTimeDays":    4.0,
		}},
	}
	// Every path any type defines, plus paths no type defines: each must be
	// undefined wherever the table does not list it.
	all := map[string]bool{"document": true, "document.note": true, "PO": true, "amount": true}
	for _, c := range cases {
		for p := range c.want {
			all[p] = true
		}
	}
	paths := make([]string, 0, len(all))
	for p := range all {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env, err := Env(c.document, "TP1", "SAP")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				got, ok := env.Lookup(p)
				want, defined := c.want[p]
				if ok != defined {
					t.Errorf("Lookup(%q) defined = %v, want %v", p, ok, defined)
					continue
				}
				if got != want {
					t.Errorf("Lookup(%q) = %v (%T), want %v (%T)", p, got, got, want, want)
				}
			}
		})
	}
}

// TestEnvUnknownType: documents Env has no fields for — including the
// functional acknowledgment, a known type that never reaches rules — fail
// with ErrUnknownDocType and the message naming the Go type.
func TestEnvUnknownType(t *testing.T) {
	for _, c := range []struct {
		document any
		msg      string
	}{
		{&FunctionalAck{ID: "FA-1"}, "doc: cannot build rule environment: doc: unknown document type: *doc.FunctionalAck"},
		{"raw text", "doc: cannot build rule environment: doc: unknown document type: string"},
		{nil, "doc: cannot build rule environment: doc: unknown document type: <nil>"},
	} {
		env, err := Env(c.document, "TP1", "SAP")
		if !errors.Is(err, ErrUnknownDocType) || err.Error() != c.msg {
			t.Errorf("Env(%T) err = %v, want %q", c.document, err, c.msg)
		}
		if env != nil {
			t.Errorf("Env(%T) returned an environment alongside its error", c.document)
		}
	}
}
