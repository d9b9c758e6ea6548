package edi

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/formats"
)

// AckCode is the X12 ACK01 line item status code.
type AckCode string

// ACK01 codes used by the framework.
const (
	AckItemAccepted  AckCode = "IA" // item accepted
	AckItemRejected  AckCode = "IR" // item rejected
	AckItemBackorder AckCode = "IB" // item backordered
)

// BAKCode is the X12 BAK02 acknowledgment type code.
type BAKCode string

// BAK02 codes used by the framework.
const (
	BAKAcceptedWithDetail BAKCode = "AD" // acknowledge with detail, no change
	BAKRejectedWithDetail BAKCode = "RD" // reject with detail
	BAKAcceptedWithChange BAKCode = "AC" // acknowledge with detail and change
)

// AckItem855 is one PO1/ACK loop of an 855.
type AckItem855 struct {
	// Line is PO101 of the echoed line.
	Line int
	// Code is ACK01.
	Code AckCode
	// Quantity is ACK02 (confirmed quantity).
	Quantity int
	// ShipDate is ACK05 with qualifier 067 (ship date), zero if absent.
	ShipDate time.Time
}

// POA855 is the native representation of an X12 855 purchase order
// acknowledgment.
type POA855 struct {
	SenderID   string
	ReceiverID string
	Control    int
	// AckNumber is BAK08, the seller-assigned acknowledgment reference.
	AckNumber string
	// PONumber is BAK03, the acknowledged purchase order.
	PONumber string
	// Code is BAK02.
	Code BAKCode
	// Date is BAK04.
	Date time.Time
	// Buyer/Seller mirror the N1 loops.
	BuyerName  string
	BuyerDUNS  string
	SellerName string
	SellerDUNS string
	// Note is an MSG segment if present.
	Note string
	// Items are the PO1/ACK loops.
	Items []AckItem855
}

// Interchange lowers the typed 855 to its envelope and segments.
func (p *POA855) Interchange() *Interchange {
	body := []Segment{
		seg("BAK", "00", string(p.Code), p.PONumber, p.Date.Format("20060102"), "", "", "", p.AckNumber),
		seg("N1", "BY", p.BuyerName, "1", p.BuyerDUNS),
		seg("N1", "SE", p.SellerName, "1", p.SellerDUNS),
	}
	if p.Note != "" {
		body = append(body, seg("MSG", p.Note))
	}
	for _, it := range p.Items {
		body = append(body, seg("PO1", strconv.Itoa(it.Line)))
		ack := seg("ACK", string(it.Code), strconv.Itoa(it.Quantity), "EA")
		if !it.ShipDate.IsZero() {
			ack = seg("ACK", string(it.Code), strconv.Itoa(it.Quantity), "EA", "067", it.ShipDate.Format("20060102"))
		}
		body = append(body, ack)
	}
	body = append(body, seg("CTT", strconv.Itoa(len(p.Items))))
	return &Interchange{
		SenderID:   p.SenderID,
		ReceiverID: p.ReceiverID,
		Control:    p.Control,
		GroupID:    "PR",
		TxSetID:    "855",
		Date:       p.Date,
		Body:       body,
	}
}

// ParsePOA855 lifts a decoded interchange into the typed 855. Its strings
// are copies, so the typed 855 does not keep the interchange alive.
func ParsePOA855(ic *Interchange) (*POA855, error) {
	if ic.TxSetID != "855" {
		return nil, decodeErrf("transaction set is %s, want 855", ic.TxSetID)
	}
	p := &POA855{
		Control: ic.Control,
		Date:    ic.Date,
	}
	if n := count(ic.Body, "PO1"); n > 0 {
		p.Items = make([]AckItem855, 0, n) // never regrown: keep points into it
	}
	v := formats.GetValues()
	defer v.Release()
	keep(v, &p.SenderID, ic.SenderID)
	keep(v, &p.ReceiverID, ic.ReceiverID)
	cttCount := -1
	sawBAK := false
	for i := 0; i < len(ic.Body); i++ {
		s := ic.Body[i]
		switch s.ID {
		case "BAK":
			sawBAK = true
			keep(v, (*string)(&p.Code), s.Elem(2))
			keep(v, &p.PONumber, s.Elem(3))
			keep(v, &p.AckNumber, s.Elem(8))
			if d, err := time.Parse("20060102", s.Elem(4)); err == nil {
				p.Date = d
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
		case "PO1":
			line, err := strconv.Atoi(s.Elem(1))
			if err != nil {
				return nil, decodeErrf("PO101 %q is not a line number", s.Elem(1))
			}
			if i+1 >= len(ic.Body) || ic.Body[i+1].ID != "ACK" {
				return nil, decodeErrf("PO1 loop for line %d is missing its ACK segment", line)
			}
			ack := ic.Body[i+1]
			i++
			qty, err := strconv.Atoi(ack.Elem(2))
			if err != nil {
				return nil, decodeErrf("ACK02 %q is not a quantity", ack.Elem(2))
			}
			it := AckItem855{Line: line, Quantity: qty}
			if ack.Elem(4) == "067" {
				if d, err := time.Parse("20060102", ack.Elem(5)); err == nil {
					it.ShipDate = d
				}
			}
			p.Items = append(p.Items, it)
			keep(v, (*string)(&p.Items[len(p.Items)-1].Code), ack.Elem(1))
		case "CTT":
			n, err := strconv.Atoi(s.Elem(1))
			if err != nil {
				return nil, decodeErrf("CTT01 %q is not a count", s.Elem(1))
			}
			cttCount = n
		default:
			return nil, decodeErrf("unexpected segment %s in 855", s.ID)
		}
	}
	v.Resolve()
	if !sawBAK {
		return nil, decodeErrf("855 is missing BAK segment")
	}
	if cttCount < 0 {
		return nil, decodeErrf("855 is missing CTT segment")
	}
	if cttCount != len(p.Items) {
		return nil, decodeErrf("CTT count %d does not match %d PO1 loops", cttCount, len(p.Items))
	}
	return p, nil
}

// Encode renders the 855 to wire bytes.
func (p *POA855) Encode() ([]byte, error) {
	if p.AckNumber == "" {
		return nil, fmt.Errorf("edi: 855 requires an acknowledgment number (BAK08)")
	}
	return p.Interchange().Encode()
}

// DecodePOA855 parses wire bytes into a typed 855.
func DecodePOA855(data []byte) (*POA855, error) {
	ic, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return ParsePOA855(ic)
}
