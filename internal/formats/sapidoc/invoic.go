package sapidoc

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// InvoiceItem is one E1EDP01/E1EDP19 item group of an INVOIC IDoc.
type InvoiceItem struct {
	Posex       int
	SKU         string
	Description string
	Quantity    int
	UnitPrice   float64
}

// Invoic is the native INVOIC (billing document) IDoc — the outbound
// message SAP produces when an order is billed.
type Invoic struct {
	DocNum          int
	SenderPartner   string
	ReceiverPartner string
	CreatedAt       time.Time
	// InvoiceNumber is BELNR of E1EDK01.
	InvoiceNumber string
	// PONumber is the referenced order, E1EDK02 qualifier 001.
	PONumber string
	// Currency is CURCY of E1EDK01.
	Currency string
	// DueDate is E1EDK03 qualifier 012 (payment due).
	DueDate time.Time
	Buyer   Partner
	Seller  Partner
	Note    string
	Items   []InvoiceItem
}

// Encode renders the INVOIC IDoc as a flat file.
func (o *Invoic) Encode() ([]byte, error) {
	if o.InvoiceNumber == "" {
		return nil, fmt.Errorf("sapidoc: INVOIC requires BELNR (invoice number)")
	}
	if o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: INVOIC requires the referenced PO number")
	}
	if len(o.Items) == 0 {
		return nil, fmt.Errorf("sapidoc: INVOIC %q has no items", o.InvoiceNumber)
	}
	w := newWriter()
	defer w.release()
	w.control("INVOIC", "INVOIC02", o.DocNum, o.SenderPartner, o.ReceiverPartner, o.CreatedAt)
	w.seg("E1EDK01").set("BELNR", o.InvoiceNumber).set("CURCY", o.Currency)
	w.seg("E1EDK02").set("QUALF", "001").set("BELNR", o.PONumber)
	w.partner("AG", o.Buyer)
	w.partner("LF", o.Seller)
	if !o.DueDate.IsZero() {
		w.seg("E1EDK03").set("IDDAT", "012").setTime("DATUM", o.DueDate, credat)
	}
	if o.Note != "" {
		w.seg("E1EDKT1").set("TDID", "Z001").set("TDLINE", o.Note)
	}
	for _, it := range o.Items {
		w.seg("E1EDP01").
			setInt("POSEX", it.Posex, 6).
			setInt("MENGE", it.Quantity, 0).
			setFloat("VPREI", it.UnitPrice)
		w.seg("E1EDP19").set("QUALF", "001").set("IDTNR", it.SKU).set("KTEXT", it.Description)
	}
	return w.bytes()
}

// DecodeInvoic parses an INVOIC IDoc flat file.
func DecodeInvoic(data []byte) (*Invoic, error) {
	segs, err := parseLines(data)
	if err != nil {
		return nil, err
	}
	o := &Invoic{}
	o.DocNum, o.SenderPartner, o.ReceiverPartner, o.CreatedAt, err = parseControl(&segs[0], "INVOIC")
	if err != nil {
		return nil, err
	}
	if n := countItems(segs); n > 0 {
		o.Items = make([]InvoiceItem, 0, n)
	}
	for i := 1; i < len(segs); i++ {
		s := &segs[i]
		switch s.name {
		case "E1EDK01":
			o.InvoiceNumber = s.get("BELNR")
			o.Currency = s.get("CURCY")
		case "E1EDK02":
			if s.get("QUALF") == "001" {
				o.PONumber = s.get("BELNR")
			}
		case "E1EDK03":
			if s.get("IDDAT") == "012" {
				if d, err := time.Parse(credat, s.get("DATUM")); err == nil {
					o.DueDate = d
				}
			}
		case "E1EDKA1":
			switch s.get("PARVW") {
			case "AG":
				o.Buyer = parsePartner(s)
			case "LF":
				o.Seller = parsePartner(s)
			}
		case "E1EDKT1":
			o.Note = s.get("TDLINE")
		case "E1EDP01":
			posex, err := strconv.Atoi(strings.TrimLeft(s.get("POSEX"), "0"))
			if err != nil {
				return nil, fmt.Errorf("sapidoc: bad POSEX %q", s.get("POSEX"))
			}
			qty, err := strconv.Atoi(s.get("MENGE"))
			if err != nil {
				return nil, fmt.Errorf("sapidoc: bad MENGE %q", s.get("MENGE"))
			}
			price, err := strconv.ParseFloat(s.get("VPREI"), 64)
			if err != nil {
				return nil, fmt.Errorf("sapidoc: bad VPREI %q", s.get("VPREI"))
			}
			it := InvoiceItem{Posex: posex, Quantity: qty, UnitPrice: price}
			if i+1 < len(segs) && segs[i+1].name == "E1EDP19" {
				it.SKU = segs[i+1].get("IDTNR")
				it.Description = segs[i+1].get("KTEXT")
				i++
			}
			o.Items = append(o.Items, it)
		default:
			return nil, fmt.Errorf("sapidoc: unexpected segment %s in INVOIC", s.name)
		}
	}
	if o.InvoiceNumber == "" || o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: INVOIC is missing header segments")
	}
	if len(o.Items) == 0 {
		return nil, fmt.Errorf("sapidoc: INVOIC %q has no items", o.InvoiceNumber)
	}
	return o, nil
}
