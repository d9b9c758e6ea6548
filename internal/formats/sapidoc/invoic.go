package sapidoc

import (
	"fmt"
	"time"

	"repro/internal/formats"
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
	vals := formats.GetValues()
	defer vals.Release()
	o := &Invoic{}
	o.DocNum, o.CreatedAt, err = parseControl(vals, &segs[0], "INVOIC", &o.SenderPartner, &o.ReceiverPartner)
	if err != nil {
		return nil, err
	}
	if n := countItems(segs); n > 0 {
		o.Items = make([]InvoiceItem, 0, n)
	}
	for i := 1; i < len(segs); i++ {
		s := &segs[i]
		switch string(s.name) {
		case "E1EDK01":
			vals.Set(&o.InvoiceNumber, s.get("BELNR"))
			vals.Set(&o.Currency, s.get("CURCY"))
		case "E1EDK02":
			if string(s.get("QUALF")) == "001" {
				vals.Set(&o.PONumber, s.get("BELNR"))
			}
		case "E1EDK03":
			if string(s.get("IDDAT")) == "012" {
				if d, err := time.Parse(credat, string(s.get("DATUM"))); err == nil {
					o.DueDate = d
				}
			}
		case "E1EDKA1":
			switch string(s.get("PARVW")) {
			case "AG":
				parsePartner(vals, s, &o.Buyer)
			case "LF":
				parsePartner(vals, s, &o.Seller)
			}
		case "E1EDKT1":
			vals.Set(&o.Note, s.get("TDLINE"))
		case "E1EDP01":
			posex, qty, err := parseItem(s)
			if err != nil {
				return nil, err
			}
			price, err := parsePrice(s)
			if err != nil {
				return nil, err
			}
			o.Items = append(o.Items, InvoiceItem{Posex: posex, Quantity: qty, UnitPrice: price})
			if i+1 < len(segs) && segs[i+1].is("E1EDP19") {
				it := &o.Items[len(o.Items)-1]
				vals.Set(&it.SKU, segs[i+1].get("IDTNR"))
				vals.Set(&it.Description, segs[i+1].get("KTEXT"))
				i++
			}
		default:
			return nil, fmt.Errorf("sapidoc: unexpected segment %s in INVOIC", s.name)
		}
	}
	vals.Resolve()
	if o.InvoiceNumber == "" || o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: INVOIC is missing header segments")
	}
	if len(o.Items) == 0 {
		return nil, fmt.Errorf("sapidoc: INVOIC %q has no items", o.InvoiceNumber)
	}
	return o, nil
}
