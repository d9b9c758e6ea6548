package edi

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/formats"
)

// Item810 is one IT1 loop of an X12 810 invoice.
type Item810 struct {
	// Line is IT101, the assigned identification.
	Line int
	// Quantity is IT102 with unit EA.
	Quantity int
	// UnitPrice is IT104.
	UnitPrice float64
	// SKU is IT107 with qualifier VP.
	SKU string
	// Description is PID05.
	Description string
}

// Invoice810 is the native X12 810 invoice.
type Invoice810 struct {
	SenderID   string
	ReceiverID string
	Control    int
	// InvoiceNumber is BIG02.
	InvoiceNumber string
	// PONumber is BIG04, the referenced order.
	PONumber string
	// Date is BIG01; DueDate is carried in a DTM*047 segment.
	Date    time.Time
	DueDate time.Time
	// Currency is CUR02.
	Currency string
	// Buyer/Seller come from the N1 loops.
	BuyerName  string
	BuyerDUNS  string
	SellerName string
	SellerDUNS string
	// Note is an MSG segment.
	Note string
	// Items are the IT1 loops; TDS carries the total in cents.
	Items []Item810
}

// total returns the invoice total in cents for the TDS segment.
func (p *Invoice810) total() int {
	var cents int
	for _, it := range p.Items {
		cents += int(float64(it.Quantity)*it.UnitPrice*100 + 0.5)
	}
	return cents
}

// Interchange lowers the typed 810 to its envelope and segments.
func (p *Invoice810) Interchange() *Interchange {
	body := []Segment{
		seg("BIG", p.Date.Format("20060102"), p.InvoiceNumber, "", p.PONumber),
		seg("CUR", "BY", p.Currency),
		seg("N1", "BY", p.BuyerName, "1", p.BuyerDUNS),
		seg("N1", "SE", p.SellerName, "1", p.SellerDUNS),
	}
	if !p.DueDate.IsZero() {
		body = append(body, seg("DTM", "047", p.DueDate.Format("20060102")))
	}
	if p.Note != "" {
		body = append(body, seg("MSG", p.Note))
	}
	for _, it := range p.Items {
		body = append(body, seg("IT1",
			strconv.Itoa(it.Line), strconv.Itoa(it.Quantity), "EA",
			fmtPrice(it.UnitPrice), "PE", "VP", it.SKU))
		if it.Description != "" {
			body = append(body, seg("PID", "F", "", "", "", it.Description))
		}
	}
	body = append(body,
		seg("TDS", strconv.Itoa(p.total())),
		seg("CTT", strconv.Itoa(len(p.Items))),
	)
	return &Interchange{
		SenderID:   p.SenderID,
		ReceiverID: p.ReceiverID,
		Control:    p.Control,
		GroupID:    "IN",
		TxSetID:    "810",
		Date:       p.Date,
		Body:       body,
	}
}

// ParseInvoice810 lifts a decoded interchange into the typed 810, checking
// the CTT count and the TDS total against the items. Its strings are
// copies, so the typed 810 does not keep the interchange alive.
func ParseInvoice810(ic *Interchange) (*Invoice810, error) {
	if ic.TxSetID != "810" {
		return nil, decodeErrf("transaction set is %s, want 810", ic.TxSetID)
	}
	p := &Invoice810{
		Control: ic.Control,
		Date:    ic.Date,
	}
	if n := count(ic.Body, "IT1"); n > 0 {
		p.Items = make([]Item810, 0, n) // never regrown: keep points into it
	}
	v := formats.GetValues()
	defer v.Release()
	keep(v, &p.SenderID, ic.SenderID)
	keep(v, &p.ReceiverID, ic.ReceiverID)
	cttCount, tdsTotal := -1, -1
	for i := 0; i < len(ic.Body); i++ {
		s := ic.Body[i]
		switch s.ID {
		case "BIG":
			if d, err := time.Parse("20060102", s.Elem(1)); err == nil {
				p.Date = d
			}
			keep(v, &p.InvoiceNumber, s.Elem(2))
			keep(v, &p.PONumber, s.Elem(4))
		case "CUR":
			keep(v, &p.Currency, s.Elem(2))
		case "DTM":
			if s.Elem(1) == "047" {
				if d, err := time.Parse("20060102", s.Elem(2)); err == nil {
					p.DueDate = d
				}
			}
		case "N1":
			switch s.Elem(1) {
			case "BY":
				keep(v, &p.BuyerName, s.Elem(2))
				keep(v, &p.BuyerDUNS, s.Elem(4))
			case "SE":
				keep(v, &p.SellerName, s.Elem(2))
				keep(v, &p.SellerDUNS, s.Elem(4))
			}
		case "MSG":
			keep(v, &p.Note, s.Elem(1))
		case "IT1":
			line, err := strconv.Atoi(s.Elem(1))
			if err != nil {
				return nil, decodeErrf("IT101 %q is not a line number", s.Elem(1))
			}
			qty, err := strconv.Atoi(s.Elem(2))
			if err != nil {
				return nil, decodeErrf("IT102 %q is not a quantity", s.Elem(2))
			}
			price, err := strconv.ParseFloat(s.Elem(4), 64)
			if err != nil {
				return nil, decodeErrf("IT104 %q is not a price", s.Elem(4))
			}
			p.Items = append(p.Items, Item810{Line: line, Quantity: qty, UnitPrice: price})
			it := &p.Items[len(p.Items)-1]
			keep(v, &it.SKU, s.Elem(7))
			if i+1 < len(ic.Body) && ic.Body[i+1].ID == "PID" {
				keep(v, &it.Description, ic.Body[i+1].Elem(5))
				i++
			}
		case "TDS":
			n, err := strconv.Atoi(s.Elem(1))
			if err != nil {
				return nil, decodeErrf("TDS01 %q is not an amount", s.Elem(1))
			}
			tdsTotal = n
		case "CTT":
			n, err := strconv.Atoi(s.Elem(1))
			if err != nil {
				return nil, decodeErrf("CTT01 %q is not a count", s.Elem(1))
			}
			cttCount = n
		default:
			return nil, decodeErrf("unexpected segment %s in 810", s.ID)
		}
	}
	v.Resolve()
	if p.InvoiceNumber == "" {
		return nil, decodeErrf("810 is missing BIG segment")
	}
	if cttCount != len(p.Items) {
		return nil, decodeErrf("CTT count %d does not match %d IT1 loops", cttCount, len(p.Items))
	}
	if tdsTotal != p.total() {
		return nil, decodeErrf("TDS total %d does not match computed %d", tdsTotal, p.total())
	}
	return p, nil
}

// Encode renders the 810 to wire bytes.
func (p *Invoice810) Encode() ([]byte, error) {
	if p.InvoiceNumber == "" {
		return nil, fmt.Errorf("edi: 810 requires an invoice number (BIG02)")
	}
	if len(p.Items) == 0 {
		return nil, fmt.Errorf("edi: 810 %q has no IT1 loops", p.InvoiceNumber)
	}
	return p.Interchange().Encode()
}

// DecodeInvoice810 parses wire bytes into a typed 810.
func DecodeInvoice810(data []byte) (*Invoice810, error) {
	ic, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return ParseInvoice810(ic)
}
