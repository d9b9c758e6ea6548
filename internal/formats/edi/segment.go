// Package edi implements a structurally faithful subset of ANSI X12 EDI for
// the paper's running example: 850 purchase orders and 855 purchase order
// acknowledgments, wrapped in ISA/GS/ST envelopes.
//
// This is the "EDI" B2B protocol format of the paper (reference [19],
// www.x12.org). The subset is synthetic but preserves what matters for the
// integration architecture: a flat segment syntax completely unlike the XML
// protocols, envelope control numbers, qualifier codes, and per-line loops —
// so the transformation into the normalized format is a genuine semantic
// mapping, not a field rename.
package edi

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/formats"
)

// Element and segment separators of the interchange. We fix the common
// defaults; a production translator would read them from ISA.
const (
	elemSep = "*"
	segTerm = "~"
)

// Segment is one EDI segment: an ID and its elements (element 01 is
// Elems[0]).
type Segment struct {
	ID    string
	Elems []string
}

// String renders the segment without the terminator.
func (s Segment) String() string {
	if len(s.Elems) == 0 {
		return s.ID
	}
	return s.ID + elemSep + strings.Join(s.Elems, elemSep)
}

// Elem returns element n (1-based, as in X12 documentation), or "" if the
// segment is shorter.
func (s Segment) Elem(n int) string {
	if n < 1 || n > len(s.Elems) {
		return ""
	}
	return s.Elems[n-1]
}

// seg is a convenience constructor that trims trailing empty elements.
func seg(id string, elems ...string) Segment {
	end := len(elems)
	for end > 0 && elems[end-1] == "" {
		end--
	}
	return Segment{ID: id, Elems: append([]string(nil), elems[:end]...)}
}

// Interchange is a single-transaction-set X12 interchange: one ISA/IEA
// envelope containing one GS/GE functional group containing one ST/SE
// transaction set. Multi-set interchanges are not needed by the framework
// (each business message travels alone, as under RNIF).
type Interchange struct {
	// SenderID and ReceiverID are the ISA06/ISA08 interchange IDs
	// (qualifier ZZ, mutually agreed — we use trading partner IDs).
	SenderID   string
	ReceiverID string
	// Control is the interchange control number (ISA13, mirrored in IEA02).
	Control int
	// GroupID is the functional identifier code (GS01): "PO" for 850,
	// "PR" for 855.
	GroupID string
	// TxSetID is the transaction set identifier code (ST01): "850"/"855".
	TxSetID string
	// Date is the interchange date/time (ISA09/ISA10, GS04/GS05).
	Date time.Time
	// Body is the transaction set content between ST and SE.
	Body []Segment
}

func pad(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s + strings.Repeat(" ", n-len(s))
}

// Encode renders the interchange to wire bytes, one segment per line (line
// breaks are permissible whitespace between segments in practice and keep
// test failures readable).
func (ic *Interchange) Encode() ([]byte, error) {
	if ic.SenderID == "" || ic.ReceiverID == "" {
		return nil, fmt.Errorf("edi: interchange requires sender and receiver IDs")
	}
	if ic.TxSetID == "" || ic.GroupID == "" {
		return nil, fmt.Errorf("edi: interchange requires GS01 and ST01 codes")
	}
	if strings.ContainsAny(ic.SenderID+ic.ReceiverID, elemSep+segTerm) {
		return nil, fmt.Errorf("edi: party IDs must not contain separator characters")
	}
	for _, s := range ic.Body {
		for _, e := range s.Elems {
			if strings.ContainsAny(e, elemSep+segTerm) {
				return nil, fmt.Errorf("edi: element %q in segment %s contains separator character", e, s.ID)
			}
		}
	}
	date6 := ic.Date.Format("060102")
	date8 := ic.Date.Format("20060102")
	time4 := ic.Date.Format("1504")
	ctl9 := fmt.Sprintf("%09d", ic.Control)

	sb := formats.GetBuffer()
	defer formats.PutBuffer(sb)
	write := func(s Segment) {
		sb.WriteString(s.String())
		sb.WriteString(segTerm)
		sb.WriteString("\n")
	}
	write(seg("ISA",
		"00", pad("", 10), "00", pad("", 10),
		"ZZ", pad(ic.SenderID, 15), "ZZ", pad(ic.ReceiverID, 15),
		date6, time4, "U", "00401", ctl9, "0", "P", ">"))
	write(seg("GS", ic.GroupID, ic.SenderID, ic.ReceiverID, date8, time4, strconv.Itoa(ic.Control), "X", "004010"))
	write(seg("ST", ic.TxSetID, "0001"))
	for _, s := range ic.Body {
		write(s)
	}
	// SE01 counts segments in the set including ST and SE.
	write(seg("SE", strconv.Itoa(len(ic.Body)+2), "0001"))
	write(seg("GE", "1", strconv.Itoa(ic.Control)))
	write(seg("IEA", "1", ctl9))
	return formats.CopyBytes(sb), nil
}

// keep records that *dst receives s, a window of the decoded interchange,
// copied into the document's values string (see formats.Values): a typed
// document must not keep its whole interchange alive.
func keep(v *formats.Values, dst *string, s string) { v.Set(dst, []byte(s)) }

// count returns how many segments of body have the given ID, so a
// document's item slice can be sized before keep points into it.
func count(body []Segment, id string) int {
	n := 0
	for _, s := range body {
		if s.ID == id {
			n++
		}
	}
	return n
}

// DecodeError reports a malformed interchange.
type DecodeError struct {
	Msg string
}

func (e *DecodeError) Error() string { return "edi: decode: " + e.Msg }

func decodeErrf(format string, args ...any) error {
	return &DecodeError{Msg: fmt.Sprintf(format, args...)}
}

// Decode parses wire bytes into an Interchange, verifying envelope
// structure, control numbers and segment counts.
func Decode(data []byte) (*Interchange, error) {
	raw := strings.ReplaceAll(string(data), "\n", "")
	raw = strings.ReplaceAll(raw, "\r", "")
	parts := strings.Split(raw, segTerm)
	var segs []Segment
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		elems := strings.Split(p, elemSep)
		segs = append(segs, Segment{ID: elems[0], Elems: elems[1:]})
	}
	if len(segs) < 6 {
		return nil, decodeErrf("interchange has %d segments, need at least ISA/GS/ST/SE/GE/IEA", len(segs))
	}
	isa, gs, st := segs[0], segs[1], segs[2]
	iea, ge, se := segs[len(segs)-1], segs[len(segs)-2], segs[len(segs)-3]
	if isa.ID != "ISA" || gs.ID != "GS" || st.ID != "ST" {
		return nil, decodeErrf("envelope must open with ISA/GS/ST, got %s/%s/%s", isa.ID, gs.ID, st.ID)
	}
	if se.ID != "SE" || ge.ID != "GE" || iea.ID != "IEA" {
		return nil, decodeErrf("envelope must close with SE/GE/IEA, got %s/%s/%s", se.ID, ge.ID, iea.ID)
	}
	ic := &Interchange{
		SenderID:   strings.TrimSpace(isa.Elem(6)),
		ReceiverID: strings.TrimSpace(isa.Elem(8)),
		GroupID:    gs.Elem(1),
		TxSetID:    st.Elem(1),
		Body:       segs[3 : len(segs)-3],
	}
	if ic.SenderID == "" || ic.ReceiverID == "" {
		return nil, decodeErrf("blank ISA06/ISA08 interchange IDs")
	}
	if ic.GroupID == "" || ic.TxSetID == "" {
		return nil, decodeErrf("blank GS01/ST01 codes")
	}
	ctl, err := strconv.Atoi(strings.TrimLeft(isa.Elem(13), "0"))
	if err != nil && isa.Elem(13) != "000000000" {
		return nil, decodeErrf("bad ISA13 control number %q", isa.Elem(13))
	}
	ic.Control = ctl
	if iea.Elem(2) != isa.Elem(13) {
		return nil, decodeErrf("IEA02 %q does not match ISA13 %q", iea.Elem(2), isa.Elem(13))
	}
	wantCount := strconv.Itoa(len(ic.Body) + 2)
	if se.Elem(1) != wantCount {
		return nil, decodeErrf("SE01 segment count %q, want %q", se.Elem(1), wantCount)
	}
	if d, err := time.Parse("060102 1504", isa.Elem(9)+" "+isa.Elem(10)); err == nil {
		ic.Date = d
	}
	return ic, nil
}
