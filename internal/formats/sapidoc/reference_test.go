package sapidoc

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file keeps the original map-based segment codec as a test-only
// reference. The production codec streams segments into the pooled buffer
// and decodes each document into one field slice; the differential tests
// (see differential_test.go and the fuzz targets) hold it to the reference's
// error texts, decoded structs and encoded bytes.

type refSegment struct {
	name   string
	fields map[string]string
	order  []string
}

func refNewSeg(name string) *refSegment {
	return &refSegment{name: name, fields: map[string]string{}}
}

func (s *refSegment) set(k, v string) *refSegment {
	if v == "" {
		return s
	}
	if _, dup := s.fields[k]; !dup {
		s.order = append(s.order, k)
	}
	s.fields[k] = v
	return s
}

func (s *refSegment) get(k string) string { return s.fields[k] }

func (s *refSegment) render(sb *bytes.Buffer) error {
	sb.WriteString(s.name)
	for _, k := range s.order {
		v := s.fields[k]
		if strings.ContainsAny(v, "\t\n") || strings.Contains(v, "=") {
			return fmt.Errorf("sapidoc: field %s of %s contains reserved character: %q", k, s.name, v)
		}
		sb.WriteString(fieldSep)
		sb.WriteString(k)
		sb.WriteString("=")
		sb.WriteString(v)
	}
	sb.WriteString("\n")
	return nil
}

func refParseSegment(line string) (*refSegment, error) {
	parts := strings.Split(line, fieldSep)
	s := refNewSeg(parts[0])
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return nil, fmt.Errorf("sapidoc: malformed field %q in segment %s", p, s.name)
		}
		s.set(k, v)
	}
	return s, nil
}

func refParseLines(data []byte) ([]*refSegment, error) {
	var segs []*refSegment
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		s, err := refParseSegment(line)
		if err != nil {
			return nil, err
		}
		segs = append(segs, s)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("sapidoc: empty document")
	}
	if segs[0].name != "EDI_DC40" {
		return nil, fmt.Errorf("sapidoc: document must start with EDI_DC40 control record, got %s", segs[0].name)
	}
	return segs, nil
}

func refControlRecord(mestyp, idoctyp string, docnum int, snd, rcv string, at time.Time) *refSegment {
	return refNewSeg("EDI_DC40").
		set("TABNAM", "EDI_DC40").
		set("MESTYP", mestyp).
		set("IDOCTYP", idoctyp).
		set("DOCNUM", fmt.Sprintf("%016d", docnum)).
		set("SNDPRN", snd).
		set("RCVPRN", rcv).
		set("CREDAT", at.Format(credat)).
		set("CRETIM", at.Format(cretim))
}

func refParseControl(s *refSegment, wantMestyp string) (docnum int, snd, rcv string, at time.Time, err error) {
	if got := s.get("MESTYP"); got != wantMestyp {
		return 0, "", "", time.Time{}, fmt.Errorf("sapidoc: message type %q, want %q", got, wantMestyp)
	}
	dn := strings.TrimLeft(s.get("DOCNUM"), "0")
	if dn == "" {
		dn = "0"
	}
	docnum, err = strconv.Atoi(dn)
	if err != nil {
		return 0, "", "", time.Time{}, fmt.Errorf("sapidoc: bad DOCNUM %q", s.get("DOCNUM"))
	}
	at, _ = time.Parse(credat+cretim, s.get("CREDAT")+s.get("CRETIM"))
	return docnum, s.get("SNDPRN"), s.get("RCVPRN"), at, nil
}

func refPartnerSeg(parvw string, p Partner) *refSegment {
	return refNewSeg("E1EDKA1").set("PARVW", parvw).set("PARTN", p.PartnerID).set("NAME1", p.Name).set("DUNS", p.DUNS)
}

func refParsePartner(s *refSegment) Partner {
	return Partner{PartnerID: s.get("PARTN"), Name: s.get("NAME1"), DUNS: s.get("DUNS")}
}

func refRenderAll(segs []*refSegment) ([]byte, error) {
	var sb bytes.Buffer
	for _, s := range segs {
		if err := s.render(&sb); err != nil {
			return nil, err
		}
	}
	return sb.Bytes(), nil
}

func refFmtQty(q int) string       { return strconv.Itoa(q) }
func refFmtPrice(p float64) string { return strconv.FormatFloat(p, 'f', -1, 64) }

func refEncodeOrders(o *Orders) ([]byte, error) {
	if o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: ORDERS requires BELNR (PO number)")
	}
	if len(o.Items) == 0 {
		return nil, fmt.Errorf("sapidoc: ORDERS %q has no items", o.PONumber)
	}
	segs := []*refSegment{
		refControlRecord("ORDERS", "ORDERS05", o.DocNum, o.SenderPartner, o.ReceiverPartner, o.CreatedAt),
		refNewSeg("E1EDK01").set("BELNR", o.PONumber).set("CURCY", o.Currency),
		refPartnerSeg("AG", o.Buyer),
		refPartnerSeg("LF", o.Seller),
	}
	if o.ShipTo != "" {
		segs = append(segs, refNewSeg("E1EDKA1").set("PARVW", "WE").set("NAME1", o.ShipTo))
	}
	if o.Note != "" {
		segs = append(segs, refNewSeg("E1EDKT1").set("TDID", "Z001").set("TDLINE", o.Note))
	}
	for _, it := range o.Items {
		segs = append(segs,
			refNewSeg("E1EDP01").
				set("POSEX", fmt.Sprintf("%06d", it.Posex)).
				set("MENGE", refFmtQty(it.Quantity)).
				set("VPREI", refFmtPrice(it.UnitPrice)),
			refNewSeg("E1EDP19").set("QUALF", "001").set("IDTNR", it.SKU).set("KTEXT", it.Description),
		)
	}
	return refRenderAll(segs)
}

func refDecodeOrders(data []byte) (*Orders, error) {
	segs, err := refParseLines(data)
	if err != nil {
		return nil, err
	}
	o := &Orders{}
	o.DocNum, o.SenderPartner, o.ReceiverPartner, o.CreatedAt, err = refParseControl(segs[0], "ORDERS")
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(segs); i++ {
		s := segs[i]
		switch s.name {
		case "E1EDK01":
			o.PONumber = s.get("BELNR")
			o.Currency = s.get("CURCY")
		case "E1EDKA1":
			switch s.get("PARVW") {
			case "AG":
				o.Buyer = refParsePartner(s)
			case "LF":
				o.Seller = refParsePartner(s)
			case "WE":
				o.ShipTo = s.get("NAME1")
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
			it := Item{Posex: posex, Quantity: qty, UnitPrice: price}
			if i+1 < len(segs) && segs[i+1].name == "E1EDP19" {
				it.SKU = segs[i+1].get("IDTNR")
				it.Description = segs[i+1].get("KTEXT")
				i++
			}
			o.Items = append(o.Items, it)
		default:
			return nil, fmt.Errorf("sapidoc: unexpected segment %s in ORDERS", s.name)
		}
	}
	if o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: ORDERS is missing E1EDK01")
	}
	if len(o.Items) == 0 {
		return nil, fmt.Errorf("sapidoc: ORDERS %q has no E1EDP01 items", o.PONumber)
	}
	return o, nil
}

func refEncodeOrdrsp(o *Ordrsp) ([]byte, error) {
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
	segs := []*refSegment{
		refControlRecord("ORDRSP", "ORDERS05", o.DocNum, o.SenderPartner, o.ReceiverPartner, o.CreatedAt),
		refNewSeg("E1EDK01").set("BELNR", o.AckNumber).set("ACTION", string(o.Status)),
		refNewSeg("E1EDK02").set("QUALF", "001").set("BELNR", o.PONumber),
		refPartnerSeg("AG", o.Buyer),
		refPartnerSeg("LF", o.Seller),
	}
	if o.Note != "" {
		segs = append(segs, refNewSeg("E1EDKT1").set("TDID", "Z001").set("TDLINE", o.Note))
	}
	for _, it := range o.Items {
		p01 := refNewSeg("E1EDP01").
			set("POSEX", fmt.Sprintf("%06d", it.Posex)).
			set("MENGE", refFmtQty(it.Quantity)).
			set("ACTION", string(it.Status))
		segs = append(segs, p01)
		if !it.ShipDate.IsZero() {
			segs = append(segs, refNewSeg("E1EDP20").set("EDATU", it.ShipDate.Format(edatu)))
		}
	}
	return refRenderAll(segs)
}

func refDecodeOrdrsp(data []byte) (*Ordrsp, error) {
	segs, err := refParseLines(data)
	if err != nil {
		return nil, err
	}
	o := &Ordrsp{}
	o.DocNum, o.SenderPartner, o.ReceiverPartner, o.CreatedAt, err = refParseControl(segs[0], "ORDRSP")
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(segs); i++ {
		s := segs[i]
		switch s.name {
		case "E1EDK01":
			o.AckNumber = s.get("BELNR")
			o.Status = AckStatusCode(s.get("ACTION"))
		case "E1EDK02":
			if s.get("QUALF") == "001" {
				o.PONumber = s.get("BELNR")
			}
		case "E1EDKA1":
			switch s.get("PARVW") {
			case "AG":
				o.Buyer = refParsePartner(s)
			case "LF":
				o.Seller = refParsePartner(s)
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
			it := AckItem{Posex: posex, Quantity: qty, Status: AckStatusCode(s.get("ACTION"))}
			if i+1 < len(segs) && segs[i+1].name == "E1EDP20" {
				if d, err := time.Parse(edatu, segs[i+1].get("EDATU")); err == nil {
					it.ShipDate = d
				}
				i++
			}
			o.Items = append(o.Items, it)
		default:
			return nil, fmt.Errorf("sapidoc: unexpected segment %s in ORDRSP", s.name)
		}
	}
	if o.AckNumber == "" || o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: ORDRSP is missing header segments")
	}
	return o, nil
}

func refEncodeInvoic(o *Invoic) ([]byte, error) {
	if o.InvoiceNumber == "" {
		return nil, fmt.Errorf("sapidoc: INVOIC requires BELNR (invoice number)")
	}
	if o.PONumber == "" {
		return nil, fmt.Errorf("sapidoc: INVOIC requires the referenced PO number")
	}
	if len(o.Items) == 0 {
		return nil, fmt.Errorf("sapidoc: INVOIC %q has no items", o.InvoiceNumber)
	}
	segs := []*refSegment{
		refControlRecord("INVOIC", "INVOIC02", o.DocNum, o.SenderPartner, o.ReceiverPartner, o.CreatedAt),
		refNewSeg("E1EDK01").set("BELNR", o.InvoiceNumber).set("CURCY", o.Currency),
		refNewSeg("E1EDK02").set("QUALF", "001").set("BELNR", o.PONumber),
		refPartnerSeg("AG", o.Buyer),
		refPartnerSeg("LF", o.Seller),
	}
	if !o.DueDate.IsZero() {
		segs = append(segs, refNewSeg("E1EDK03").set("IDDAT", "012").set("DATUM", o.DueDate.Format(credat)))
	}
	if o.Note != "" {
		segs = append(segs, refNewSeg("E1EDKT1").set("TDID", "Z001").set("TDLINE", o.Note))
	}
	for _, it := range o.Items {
		segs = append(segs,
			refNewSeg("E1EDP01").
				set("POSEX", fmt.Sprintf("%06d", it.Posex)).
				set("MENGE", refFmtQty(it.Quantity)).
				set("VPREI", refFmtPrice(it.UnitPrice)),
			refNewSeg("E1EDP19").set("QUALF", "001").set("IDTNR", it.SKU).set("KTEXT", it.Description),
		)
	}
	return refRenderAll(segs)
}

func refDecodeInvoic(data []byte) (*Invoic, error) {
	segs, err := refParseLines(data)
	if err != nil {
		return nil, err
	}
	o := &Invoic{}
	o.DocNum, o.SenderPartner, o.ReceiverPartner, o.CreatedAt, err = refParseControl(segs[0], "INVOIC")
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(segs); i++ {
		s := segs[i]
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
				o.Buyer = refParsePartner(s)
			case "LF":
				o.Seller = refParsePartner(s)
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
