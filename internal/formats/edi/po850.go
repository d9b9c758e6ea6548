package edi

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/formats"
)

// Item850 is one PO1 loop of an 850: baseline item data plus its PID
// description.
type Item850 struct {
	// Line is PO101, the assigned line identification.
	Line int
	// Quantity is PO102 with unit EA.
	Quantity int
	// UnitPrice is PO104 with basis PE (price per each).
	UnitPrice float64
	// SKU is PO107 with qualifier VP (vendor part number).
	SKU string
	// Description is PID05 of the item description segment.
	Description string
}

// PO850 is the native representation of an X12 850 purchase order. It is
// what the EDI public process produces and consumes; the transformation
// engine maps it to and from doc.PurchaseOrder.
type PO850 struct {
	// SenderID/ReceiverID are the interchange party IDs (trading partner
	// identifiers under qualifier ZZ).
	SenderID   string
	ReceiverID string
	// Control is the interchange control number.
	Control int
	// PONumber is BEG03.
	PONumber string
	// Date is BEG05 (and the interchange date).
	Date time.Time
	// Currency is CUR02 with entity BY.
	Currency string
	// Buyer/Seller name and DUNS come from the N1*BY and N1*SE loops.
	BuyerName  string
	BuyerDUNS  string
	SellerName string
	SellerDUNS string
	// ShipTo is carried as N1*ST name (single line).
	ShipTo string
	// Note is carried in an MSG segment if present.
	Note string
	// Items are the PO1 loops.
	Items []Item850
}

func fmtPrice(p float64) string {
	return strconv.FormatFloat(p, 'f', -1, 64)
}

// Interchange lowers the typed 850 to its envelope and segments.
func (p *PO850) Interchange() *Interchange {
	body := []Segment{
		seg("BEG", "00", "SA", p.PONumber, "", p.Date.Format("20060102")),
		seg("CUR", "BY", p.Currency),
		seg("N1", "BY", p.BuyerName, "1", p.BuyerDUNS),
		seg("N1", "SE", p.SellerName, "1", p.SellerDUNS),
	}
	if p.ShipTo != "" {
		body = append(body, seg("N1", "ST", p.ShipTo))
	}
	if p.Note != "" {
		body = append(body, seg("MSG", p.Note))
	}
	for _, it := range p.Items {
		body = append(body, seg("PO1",
			strconv.Itoa(it.Line), strconv.Itoa(it.Quantity), "EA",
			fmtPrice(it.UnitPrice), "PE", "VP", it.SKU))
		if it.Description != "" {
			body = append(body, seg("PID", "F", "", "", "", it.Description))
		}
	}
	body = append(body, seg("CTT", strconv.Itoa(len(p.Items))))
	return &Interchange{
		SenderID:   p.SenderID,
		ReceiverID: p.ReceiverID,
		Control:    p.Control,
		GroupID:    "PO",
		TxSetID:    "850",
		Date:       p.Date,
		Body:       body,
	}
}

// ParsePO850 lifts a decoded interchange into the typed 850, verifying the
// transaction set type and the CTT line count. Its strings are copies, so
// the typed 850 does not keep the interchange alive.
func ParsePO850(ic *Interchange) (*PO850, error) {
	if ic.TxSetID != "850" {
		return nil, decodeErrf("transaction set is %s, want 850", ic.TxSetID)
	}
	p := &PO850{
		Control: ic.Control,
		Date:    ic.Date,
	}
	if n := count(ic.Body, "PO1"); n > 0 {
		p.Items = make([]Item850, 0, n) // never regrown: keep points into it
	}
	v := formats.GetValues()
	defer v.Release()
	keep(v, &p.SenderID, ic.SenderID)
	keep(v, &p.ReceiverID, ic.ReceiverID)
	var cttCount = -1
	for i := 0; i < len(ic.Body); i++ {
		s := ic.Body[i]
		switch s.ID {
		case "BEG":
			keep(v, &p.PONumber, s.Elem(3))
			if d, err := time.Parse("20060102", s.Elem(5)); err == nil {
				p.Date = d
			}
		case "CUR":
			keep(v, &p.Currency, s.Elem(2))
		case "N1":
			switch s.Elem(1) {
			case "BY":
				keep(v, &p.BuyerName, s.Elem(2))
				keep(v, &p.BuyerDUNS, s.Elem(4))
			case "SE":
				keep(v, &p.SellerName, s.Elem(2))
				keep(v, &p.SellerDUNS, s.Elem(4))
			case "ST":
				keep(v, &p.ShipTo, s.Elem(2))
			}
		case "MSG":
			keep(v, &p.Note, s.Elem(1))
		case "PO1":
			line, err := strconv.Atoi(s.Elem(1))
			if err != nil {
				return nil, decodeErrf("PO101 %q is not a line number", s.Elem(1))
			}
			qty, err := strconv.Atoi(s.Elem(2))
			if err != nil {
				return nil, decodeErrf("PO102 %q is not a quantity", s.Elem(2))
			}
			price, err := strconv.ParseFloat(s.Elem(4), 64)
			if err != nil {
				return nil, decodeErrf("PO104 %q is not a price", s.Elem(4))
			}
			p.Items = append(p.Items, Item850{Line: line, Quantity: qty, UnitPrice: price})
			it := &p.Items[len(p.Items)-1]
			keep(v, &it.SKU, s.Elem(7))
			if i+1 < len(ic.Body) && ic.Body[i+1].ID == "PID" {
				keep(v, &it.Description, ic.Body[i+1].Elem(5))
				i++
			}
		case "CTT":
			n, err := strconv.Atoi(s.Elem(1))
			if err != nil {
				return nil, decodeErrf("CTT01 %q is not a count", s.Elem(1))
			}
			cttCount = n
		default:
			return nil, decodeErrf("unexpected segment %s in 850", s.ID)
		}
	}
	v.Resolve()
	if p.PONumber == "" {
		return nil, decodeErrf("850 is missing BEG segment")
	}
	if cttCount < 0 {
		return nil, decodeErrf("850 is missing CTT segment")
	}
	if cttCount != len(p.Items) {
		return nil, decodeErrf("CTT count %d does not match %d PO1 loops", cttCount, len(p.Items))
	}
	return p, nil
}

// Encode renders the 850 to wire bytes.
func (p *PO850) Encode() ([]byte, error) {
	if len(p.Items) == 0 {
		return nil, fmt.Errorf("edi: 850 %q has no PO1 loops", p.PONumber)
	}
	return p.Interchange().Encode()
}

// DecodePO850 parses wire bytes into a typed 850.
func DecodePO850(data []byte) (*PO850, error) {
	ic, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return ParsePO850(ic)
}
