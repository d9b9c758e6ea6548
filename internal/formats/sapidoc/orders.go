package sapidoc

import (
	"fmt"
	"time"

	"repro/internal/formats"
)

// Encode renders the ORDERS IDoc as a flat file.
func (o *Orders) Encode() ([]byte, error) {
	if o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: ORDERS requires BELNR (PO number)")
	}
	if len(o.Items) == 0 {
		return nil, fmt.Errorf("sapidoc: ORDERS %q has no items", o.PONumber)
	}
	w := newWriter()
	defer w.release()
	w.control("ORDERS", "ORDERS05", o.DocNum, o.SenderPartner, o.ReceiverPartner, o.CreatedAt)
	w.seg("E1EDK01").set("BELNR", o.PONumber).set("CURCY", o.Currency)
	w.partner("AG", o.Buyer)
	w.partner("LF", o.Seller)
	if o.ShipTo != "" {
		w.seg("E1EDKA1").set("PARVW", "WE").set("NAME1", o.ShipTo)
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

// DecodeOrders parses an ORDERS IDoc flat file.
func DecodeOrders(data []byte) (*Orders, error) {
	segs, err := parseLines(data)
	if err != nil {
		return nil, err
	}
	vals := formats.GetValues()
	defer vals.Release()
	o := &Orders{}
	o.DocNum, o.CreatedAt, err = parseControl(vals, &segs[0], "ORDERS", &o.SenderPartner, &o.ReceiverPartner)
	if err != nil {
		return nil, err
	}
	if n := countItems(segs); n > 0 {
		o.Items = make([]Item, 0, n)
	}
	for i := 1; i < len(segs); i++ {
		s := &segs[i]
		switch string(s.name) {
		case "E1EDK01":
			vals.Set(&o.PONumber, s.get("BELNR"))
			vals.Set(&o.Currency, s.get("CURCY"))
		case "E1EDKA1":
			switch string(s.get("PARVW")) {
			case "AG":
				parsePartner(vals, s, &o.Buyer)
			case "LF":
				parsePartner(vals, s, &o.Seller)
			case "WE":
				vals.Set(&o.ShipTo, s.get("NAME1"))
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
			o.Items = append(o.Items, Item{Posex: posex, Quantity: qty, UnitPrice: price})
			if i+1 < len(segs) && segs[i+1].is("E1EDP19") {
				it := &o.Items[len(o.Items)-1]
				vals.Set(&it.SKU, segs[i+1].get("IDTNR"))
				vals.Set(&it.Description, segs[i+1].get("KTEXT"))
				i++
			}
		default:
			return nil, fmt.Errorf("sapidoc: unexpected segment %s in ORDERS", s.name)
		}
	}
	vals.Resolve()
	if o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: ORDERS is missing E1EDK01")
	}
	if len(o.Items) == 0 {
		return nil, fmt.Errorf("sapidoc: ORDERS %q has no E1EDP01 items", o.PONumber)
	}
	return o, nil
}

const edatu = "20060102"

// Encode renders the ORDRSP IDoc as a flat file.
func (o *Ordrsp) Encode() ([]byte, error) {
	if o.AckNumber == "" {
		return nil, fmt.Errorf("sapidoc: ORDRSP requires BELNR (ack number)")
	}
	if o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: ORDRSP requires the referenced PO number")
	}
	switch o.Status {
	case StatusAccepted, StatusRejected, StatusBackorder, StatusPartial:
	default:
		return nil, fmt.Errorf("sapidoc: ORDRSP has invalid status %q", o.Status)
	}
	w := newWriter()
	defer w.release()
	w.control("ORDRSP", "ORDERS05", o.DocNum, o.SenderPartner, o.ReceiverPartner, o.CreatedAt)
	w.seg("E1EDK01").set("BELNR", o.AckNumber).set("ACTION", string(o.Status))
	w.seg("E1EDK02").set("QUALF", "001").set("BELNR", o.PONumber)
	w.partner("AG", o.Buyer)
	w.partner("LF", o.Seller)
	if o.Note != "" {
		w.seg("E1EDKT1").set("TDID", "Z001").set("TDLINE", o.Note)
	}
	for _, it := range o.Items {
		w.seg("E1EDP01").
			setInt("POSEX", it.Posex, 6).
			setInt("MENGE", it.Quantity, 0).
			set("ACTION", string(it.Status))
		if !it.ShipDate.IsZero() {
			w.seg("E1EDP20").setTime("EDATU", it.ShipDate, edatu)
		}
	}
	return w.bytes()
}

// DecodeOrdrsp parses an ORDRSP IDoc flat file.
func DecodeOrdrsp(data []byte) (*Ordrsp, error) {
	segs, err := parseLines(data)
	if err != nil {
		return nil, err
	}
	vals := formats.GetValues()
	defer vals.Release()
	o := &Ordrsp{}
	o.DocNum, o.CreatedAt, err = parseControl(vals, &segs[0], "ORDRSP", &o.SenderPartner, &o.ReceiverPartner)
	if err != nil {
		return nil, err
	}
	if n := countItems(segs); n > 0 {
		o.Items = make([]AckItem, 0, n)
	}
	for i := 1; i < len(segs); i++ {
		s := &segs[i]
		switch string(s.name) {
		case "E1EDK01":
			vals.Set(&o.AckNumber, s.get("BELNR"))
			vals.Set((*string)(&o.Status), s.get("ACTION"))
		case "E1EDK02":
			if string(s.get("QUALF")) == "001" {
				vals.Set(&o.PONumber, s.get("BELNR"))
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
			o.Items = append(o.Items, AckItem{Posex: posex, Quantity: qty})
			it := &o.Items[len(o.Items)-1]
			vals.Set((*string)(&it.Status), s.get("ACTION"))
			if i+1 < len(segs) && segs[i+1].is("E1EDP20") {
				if d, err := time.Parse(edatu, string(segs[i+1].get("EDATU"))); err == nil {
					it.ShipDate = d
				}
				i++
			}
		default:
			return nil, fmt.Errorf("sapidoc: unexpected segment %s in ORDRSP", s.name)
		}
	}
	vals.Resolve()
	if o.AckNumber == "" || o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: ORDRSP is missing header segments")
	}
	return o, nil
}
