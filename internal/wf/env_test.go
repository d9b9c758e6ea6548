package wf_test

import (
	"testing"

	"repro/internal/doc"
	"repro/internal/wf"
)

// TestInstanceEnv pins how conditions see an instance: a document path
// answers first (source/target included when the document has a rule
// environment), then a primitive data value, else the path is undefined.
func TestInstanceEnv(t *testing.T) {
	po := &doc.PurchaseOrder{
		ID: "PO-7", Buyer: doc.Party{ID: "TP1"}, Seller: doc.Party{ID: "HUB"},
		Lines: []doc.Line{{Number: 1, SKU: "A", Quantity: 4, UnitPrice: 25}},
	}
	withDoc := map[string]any{
		"document":        po,
		"source":          "TP1",
		"target":          "SAP",
		"approved":        true,
		"count":           3,
		"seq":             int64(9),
		"ratio":           0.5,
		"document.amount": 1.0,
		"PO.id":           "stale",
		"lines":           []string{"x"},
		"raw":             []byte("x"),
	}
	cases := []struct {
		name string
		data map[string]any
		path string
		want any
		ok   bool
	}{
		{"document field", withDoc, "document.amount", 100.0, true},
		{"document alias shadows data key", withDoc, "PO.id", "PO-7", true},
		{"source through the document", withDoc, "source", "TP1", true},
		{"data bool fallback", withDoc, "approved", true, true},
		{"data int fallback", withDoc, "count", 3, true},
		{"data int64 fallback", withDoc, "seq", int64(9), true},
		{"data float64 fallback", withDoc, "ratio", 0.5, true},
		{"non-primitive data value", withDoc, "lines", nil, false},
		{"bytes data value", withDoc, "raw", nil, false},
		{"document value itself", withDoc, "document", nil, false},
		{"undefined path", withDoc, "document.sku", nil, false},
		{"non-string source with a document", map[string]any{"document": po, "source": 7}, "source", "", true},
		{"missing target with a document", map[string]any{"document": po}, "target", "", true},
		{"no document: data source", map[string]any{"source": "TP2", "amount": 5.0}, "source", "TP2", true},
		{"no document: data value", map[string]any{"source": "TP2", "amount": 5.0}, "amount", 5.0, true},
		{"no document: document path", map[string]any{"source": "TP2"}, "document.amount", nil, false},
		{"no document: missing target", map[string]any{"source": "TP2"}, "target", nil, false},
		{"document without rule fields: data source", map[string]any{"document": &doc.FunctionalAck{}, "source": "TP3"}, "source", "TP3", true},
		{"document without rule fields: document path", map[string]any{"document": &doc.FunctionalAck{}}, "document.type", nil, false},
		{"primitive document", map[string]any{"document": "raw"}, "document", "raw", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := &wf.Instance{Data: c.data}
			got, ok := in.Env().Lookup(c.path)
			if ok != c.ok || got != c.want {
				t.Fatalf("Lookup(%q) = %v (%T), %v; want %v (%T), %v", c.path, got, got, ok, c.want, c.want, c.ok)
			}
		})
	}
}
