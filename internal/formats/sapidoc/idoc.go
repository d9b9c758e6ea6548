// Package sapidoc implements a structurally faithful subset of SAP IDoc
// flat files for the paper's running example: the ORDERS message type
// (inbound purchase order, basic type ORDERS05) and the ORDRSP message type
// (order response / purchase order acknowledgment).
//
// This is the "SAP" back-end application format of the paper (Figure 9:
// "Transform EDI to SAP PO", "Store SAP PO", "Extract SAP POA"). The
// segment vocabulary follows the ORDERS05 IDoc (EDI_DC40 control record,
// E1EDK01 header, E1EDKA1 partner segments with PARVW qualifiers, E1EDP01
// item segments with POSEX/MENGE/VPREI, E1EDP19 item identification); the
// fixed-width layout of real IDocs is replaced by tab-separated KEY=VALUE
// fields, which preserves the segment/qualifier structure that makes the
// transformation semantic.
package sapidoc

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/formats"
)

// Partner is an IDoc partner function (E1EDKA1 segment).
type Partner struct {
	// PartnerID is PARTN, the partner number — the trading partner ID.
	PartnerID string
	// Name is NAME1.
	Name string
	// DUNS carries the D-U-N-S number in an extension field.
	DUNS string
}

// Item is one E1EDP01/E1EDP19 item group of an ORDERS IDoc.
type Item struct {
	// Posex is POSEX, the item number (conventionally line*10).
	Posex int
	// SKU is IDTNR of the E1EDP19 qualifier 001 segment.
	SKU string
	// Description is KTEXT of E1EDP19.
	Description string
	// Quantity is MENGE.
	Quantity int
	// UnitPrice is VPREI.
	UnitPrice float64
}

// Orders is the native ORDERS (purchase order) IDoc.
type Orders struct {
	// DocNum is DOCNUM of the control record.
	DocNum int
	// SenderPartner/ReceiverPartner are SNDPRN/RCVPRN of the control record.
	SenderPartner   string
	ReceiverPartner string
	// CreatedAt is CREDAT+CRETIM.
	CreatedAt time.Time
	// PONumber is BELNR of E1EDK01.
	PONumber string
	// Currency is CURCY of E1EDK01.
	Currency string
	// Buyer is the E1EDKA1 PARVW=AG (sold-to) partner; Seller is PARVW=LF
	// (vendor).
	Buyer  Partner
	Seller Partner
	// ShipTo is the E1EDKA1 PARVW=WE (ship-to) name.
	ShipTo string
	// Note is the E1EDKT1 header text.
	Note string
	// Items are the item groups.
	Items []Item
}

// AckStatusCode is the ORDRSP item/header status (ACTION-like code).
type AckStatusCode string

// ORDRSP status codes used by the framework.
const (
	StatusAccepted  AckStatusCode = "ACC"
	StatusRejected  AckStatusCode = "REJ"
	StatusBackorder AckStatusCode = "BCK"
	StatusPartial   AckStatusCode = "PRT"
)

// AckItem is one item group of an ORDRSP IDoc.
type AckItem struct {
	Posex    int
	Status   AckStatusCode
	Quantity int
	// ShipDate is EDATU of the E1EDP20 schedule segment, zero if absent.
	ShipDate time.Time
}

// Ordrsp is the native ORDRSP (order response / POA) IDoc.
type Ordrsp struct {
	DocNum          int
	SenderPartner   string
	ReceiverPartner string
	CreatedAt       time.Time
	// AckNumber is BELNR of E1EDK01 (the response document number).
	AckNumber string
	// PONumber is the referenced order, E1EDK02 qualifier 001 BELNR.
	PONumber string
	// Status is the header-level status code.
	Status AckStatusCode
	Buyer  Partner
	Seller Partner
	Note   string
	Items  []AckItem
}

const (
	fieldSep = "\t"
	credat   = "20060102"
	cretim   = "150405"
)

// writer renders segments straight into a pooled encode buffer: seg starts
// a segment and the set methods append its fields in call order. Empty
// string values are skipped. The first value holding a reserved character
// becomes the writer's error, and everything after it is dropped with the
// buffer.
type writer struct {
	buf  *bytes.Buffer
	name string // the open segment
	err  error
}

func newWriter() writer { return writer{buf: formats.GetBuffer()} }

// release returns the writer's buffer to the pool.
func (w *writer) release() { formats.PutBuffer(w.buf) }

// seg ends the open segment, if any, and starts the next one.
func (w *writer) seg(name string) *writer {
	if w.name != "" {
		w.buf.WriteByte('\n')
	}
	w.buf.WriteString(name)
	w.name = name
	return w
}

// key writes a field's separator and key; the caller appends the value.
func (w *writer) key(k string) {
	w.buf.WriteString(fieldSep)
	w.buf.WriteString(k)
	w.buf.WriteByte('=')
}

func (w *writer) set(k, v string) *writer {
	if v == "" || w.err != nil {
		return w
	}
	if strings.ContainsAny(v, "\t\n") || strings.Contains(v, "=") {
		w.err = fmt.Errorf("sapidoc: field %s of %s contains reserved character: %q", k, w.name, v)
		return w
	}
	w.key(k)
	w.buf.WriteString(v)
	return w
}

// setInt appends n in decimal, zero-padded to width characters exactly as
// fmt's %0*d pads it: a minus sign counts toward the width.
func (w *writer) setInt(k string, n, width int) *writer {
	w.key(k)
	var scratch [20]byte
	digits := strconv.AppendInt(scratch[:0], int64(n), 10)
	if n < 0 {
		w.buf.WriteByte('-')
		digits, width = digits[1:], width-1
	}
	for i := len(digits); i < width; i++ {
		w.buf.WriteByte('0')
	}
	w.buf.Write(digits)
	return w
}

// setFloat appends p in the shortest decimal form that round-trips.
func (w *writer) setFloat(k string, p float64) *writer {
	w.key(k)
	w.buf.Write(strconv.AppendFloat(w.buf.AvailableBuffer(), p, 'f', -1, 64))
	return w
}

func (w *writer) setTime(k string, t time.Time, layout string) *writer {
	w.key(k)
	w.buf.Write(t.AppendFormat(w.buf.AvailableBuffer(), layout))
	return w
}

// bytes ends the last segment and returns a copy of the document.
func (w *writer) bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.name != "" {
		w.buf.WriteByte('\n')
	}
	return formats.CopyBytes(w.buf), nil
}

func (w *writer) control(mestyp, idoctyp string, docnum int, snd, rcv string, at time.Time) {
	w.seg("EDI_DC40").
		set("TABNAM", "EDI_DC40").
		set("MESTYP", mestyp).
		set("IDOCTYP", idoctyp).
		setInt("DOCNUM", docnum, 16).
		set("SNDPRN", snd).
		set("RCVPRN", rcv).
		setTime("CREDAT", at, credat).
		setTime("CRETIM", at, cretim)
}

func (w *writer) partner(parvw string, p Partner) {
	w.seg("E1EDKA1").set("PARVW", parvw).set("PARTN", p.PartnerID).set("NAME1", p.Name).set("DUNS", p.DUNS)
}

// field is one KEY=VALUE pair of a decoded segment: a window of the input
// and the offset of its '='.
type field struct {
	kv []byte
	eq int
}

// segment is one decoded line: its name and a window of the document's
// field slice.
type segment struct {
	name   []byte
	fields []field
}

// is reports whether the segment is named name.
func (s *segment) is(name string) bool { return string(s.name) == name }

// get returns the last non-empty value of key, or nil: a repeated key
// overrides the earlier value, and an empty value sets nothing.
func (s *segment) get(k string) []byte {
	for i := len(s.fields) - 1; i >= 0; i-- {
		if f := s.fields[i]; string(f.kv[:f.eq]) == k && len(f.kv) > f.eq+1 {
			return f.kv[f.eq+1:]
		}
	}
	return nil
}

// parseLines splits a flat file into segments, skipping whitespace-only
// lines. Names, keys and values are windows of data, which the decoded
// document must not keep: its strings are copied into a formats.Values.
// All the fields share one slice sized by the document's tab count.
func parseLines(data []byte) ([]segment, error) {
	fields := make([]field, 0, bytes.Count(data, []byte(fieldSep)))
	segs := make([]segment, 0, bytes.Count(data, []byte("\n"))+1)
	for rest := data; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		name, tail, more := bytes.Cut(line, []byte(fieldSep))
		start := len(fields)
		for more {
			var part []byte
			part, tail, more = bytes.Cut(tail, []byte(fieldSep))
			eq := bytes.IndexByte(part, '=')
			if eq < 0 {
				return nil, fmt.Errorf("sapidoc: malformed field %q in segment %s", part, name)
			}
			fields = append(fields, field{part, eq})
		}
		segs = append(segs, segment{name: name, fields: fields[start:len(fields):len(fields)]})
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("sapidoc: empty document")
	}
	if !segs[0].is("EDI_DC40") {
		return nil, fmt.Errorf("sapidoc: document must start with EDI_DC40 control record, got %s", segs[0].name)
	}
	return segs, nil
}

// countItems sizes a decoded item slice: the number of E1EDP01 segments,
// each of which starts one item. The slice then never moves, as the
// pending string assignments into it require.
func countItems(segs []segment) int {
	n := 0
	for i := range segs {
		if segs[i].is("E1EDP01") {
			n++
		}
	}
	return n
}

// parseControl reads the control record: the sending and receiving
// partners go to vals.
func parseControl(vals *formats.Values, s *segment, wantMestyp string, snd, rcv *string) (docnum int, at time.Time, err error) {
	if got := s.get("MESTYP"); string(got) != wantMestyp {
		return 0, time.Time{}, fmt.Errorf("sapidoc: message type %q, want %q", got, wantMestyp)
	}
	dn := bytes.TrimLeft(s.get("DOCNUM"), "0")
	if len(dn) == 0 {
		dn = []byte("0")
	}
	docnum, err = strconv.Atoi(string(dn))
	if err != nil {
		return 0, time.Time{}, fmt.Errorf("sapidoc: bad DOCNUM %q", s.get("DOCNUM"))
	}
	at, _ = time.Parse(credat+cretim, string(s.get("CREDAT"))+string(s.get("CRETIM")))
	vals.Set(snd, s.get("SNDPRN"))
	vals.Set(rcv, s.get("RCVPRN"))
	return docnum, at, nil
}

func parsePartner(vals *formats.Values, s *segment, p *Partner) {
	vals.Set(&p.PartnerID, s.get("PARTN"))
	vals.Set(&p.Name, s.get("NAME1"))
	vals.Set(&p.DUNS, s.get("DUNS"))
}

// parseItem reads an E1EDP01 item segment's number and quantity.
func parseItem(s *segment) (posex, qty int, err error) {
	posex, err = strconv.Atoi(string(bytes.TrimLeft(s.get("POSEX"), "0")))
	if err != nil {
		return 0, 0, fmt.Errorf("sapidoc: bad POSEX %q", s.get("POSEX"))
	}
	qty, err = strconv.Atoi(string(s.get("MENGE")))
	if err != nil {
		return 0, 0, fmt.Errorf("sapidoc: bad MENGE %q", s.get("MENGE"))
	}
	return posex, qty, nil
}

// parsePrice reads an item segment's VPREI.
func parsePrice(s *segment) (float64, error) {
	price, err := strconv.ParseFloat(string(s.get("VPREI")), 64)
	if err != nil {
		return 0, fmt.Errorf("sapidoc: bad VPREI %q", s.get("VPREI"))
	}
	return price, nil
}
