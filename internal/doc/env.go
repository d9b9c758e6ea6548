package doc

import (
	"fmt"

	"repro/internal/expr"
)

// Env returns the expression-language environment for a normalized document,
// exposing its fields under the "document." prefix plus the aliases used in
// the paper's figures ("PO.amount", "POA.status"). The source and target
// parameters are the trading partner / application identifiers that the
// generic rule-binding workflow step passes alongside the document
// (Section 4.3: "The data given to business rules usually includes source,
// target as well as the message itself").
//
// The environment resolves each path when a condition looks it up (see
// Lookup), so a condition pays only for the fields it reads; the document
// must not change while the environment is in use. Documents without rule
// fields fail with ErrUnknownDocType.
func Env(document any, source, target string) (expr.Env, error) {
	switch document.(type) {
	case *PurchaseOrder, *PurchaseOrderAck, *RequestForQuote, *Invoice, *Quote:
		return docEnv{document: document, source: source, target: target}, nil
	}
	return nil, fmt.Errorf("doc: cannot build rule environment: %w: %T", ErrUnknownDocType, document)
}

type docEnv struct {
	document       any
	source, target string
}

// Lookup implements expr.Env.
func (e docEnv) Lookup(path string) (expr.Value, bool) {
	return Lookup(e.document, e.source, e.target, path)
}

// Lookup resolves one path of the environment Env would return for the
// document, without building it. It reports false for undefined paths and
// for documents Env rejects.
func Lookup(document any, source, target, path string) (expr.Value, bool) {
	var v expr.Value
	switch d := document.(type) {
	case *PurchaseOrder:
		switch path {
		case "document.type":
			v = string(TypePO)
		case "document.id", "PO.id":
			v = d.ID
		case "document.amount", "PO.amount": // aliases as in Figures 1-3 and 9-10
			v = d.Amount()
		case "document.currency":
			v = d.Currency
		case "document.buyer":
			v = d.Buyer.ID
		case "document.seller":
			v = d.Seller.ID
		case "document.lines":
			v = float64(len(d.Lines))
		case "document.shipTo":
			v = d.ShipTo
		}
	case *PurchaseOrderAck:
		switch path {
		case "document.type":
			v = string(TypePOA)
		case "document.id", "POA.id":
			v = d.ID
		case "document.poId":
			v = d.POID
		case "document.status", "POA.status":
			v = string(d.Status)
		case "document.buyer":
			v = d.Buyer.ID
		case "document.seller":
			v = d.Seller.ID
		case "document.lines":
			v = float64(len(d.Lines))
		}
	case *RequestForQuote:
		switch path {
		case "document.type":
			v = string(TypeRFQ)
		case "document.id":
			v = d.ID
		case "document.sku":
			v = d.SKU
		case "document.quantity", "RFQ.quantity":
			v = float64(d.Quantity)
		case "document.buyer":
			v = d.Buyer.ID
		}
	case *Invoice:
		switch path {
		case "document.type":
			v = string(TypeINV)
		case "document.id", "Invoice.id":
			v = d.ID
		case "document.poId":
			v = d.POID
		case "document.amount", "Invoice.amount":
			v = d.Amount()
		case "document.currency":
			v = d.Currency
		case "document.buyer":
			v = d.Buyer.ID
		case "document.seller":
			v = d.Seller.ID
		case "document.lines":
			v = float64(len(d.Lines))
		}
	case *Quote:
		switch path {
		case "document.type":
			v = string(TypeQT)
		case "document.id":
			v = d.ID
		case "document.rfqId":
			v = d.RFQID
		case "document.unitPrice", "Quote.unitPrice":
			v = d.UnitPrice
		case "document.leadTimeDays", "Quote.leadTimeDays":
			v = float64(d.LeadTimeDays)
		case "document.supplier":
			v = d.Supplier.ID
		}
	default:
		return nil, false
	}
	switch {
	case v != nil:
		return v, true
	case path == "source":
		return source, true
	case path == "target":
		return target, true
	}
	return nil, false
}
