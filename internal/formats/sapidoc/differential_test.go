package sapidoc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// codecPair couples one message type's codec with its reference
// implementation (reference_test.go).
type codecPair[T any] struct {
	decode, refDecode func([]byte) (*T, error)
	encode, refEncode func(*T) ([]byte, error)
}

var (
	ordersPair = codecPair[Orders]{DecodeOrders, refDecodeOrders, (*Orders).Encode, refEncodeOrders}
	ordrspPair = codecPair[Ordrsp]{DecodeOrdrsp, refDecodeOrdrsp, (*Ordrsp).Encode, refEncodeOrdrsp}
	invoicPair = codecPair[Invoic]{DecodeInvoic, refDecodeInvoic, (*Invoic).Encode, refEncodeInvoic}
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDecode decodes data with the codec and the reference and fails the
// test unless both report the same error text or the same document, and the
// document re-encodes to the same bytes or error. It reports whether the
// input decoded.
func (c codecPair[T]) checkDecode(t *testing.T, data []byte) bool {
	t.Helper()
	got, err := c.decode(data)
	want, refErr := c.refDecode(data)
	if errText(err) != errText(refErr) {
		t.Fatalf("decode error %q, reference %q\ninput: %q", errText(err), errText(refErr), data)
	}
	if refErr != nil {
		return false
	}
	if !sameDoc(got, want) {
		t.Fatalf("decoded\n%+v\nreference\n%+v\ninput: %q", got, want, data)
	}
	c.checkEncode(t, got)
	return true
}

// sameDoc is reflect.DeepEqual, except that a NaN price ("VPREI=NaN"
// decodes) equals NaN.
func sameDoc(a, b any) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	ra, rb := fmt.Sprintf("%#v", a), fmt.Sprintf("%#v", b)
	return ra == rb && strings.Contains(ra, "NaN")
}

// checkEncode encodes doc with the codec and the reference and fails the
// test unless the bytes and error texts agree.
func (c codecPair[T]) checkEncode(t *testing.T, doc *T) {
	t.Helper()
	wire, err := c.encode(doc)
	refWire, refErr := c.refEncode(doc)
	if errText(err) != errText(refErr) {
		t.Fatalf("encode error %q, reference %q\ndocument: %+v", errText(err), errText(refErr), doc)
	}
	if !bytes.Equal(wire, refWire) {
		t.Fatalf("encoded\n%q\nreference\n%q", wire, refWire)
	}
}

// Mutation vocabulary: the bytes, tokens and segment names that steer a
// mutated document into the decoders' edge cases.
var (
	mutBytes  = []byte("\t\n=\r -+.0123456789eAZ_x")
	mutTokens = []string{
		"", "0", "000", "-1", "-0000042", "+7", "1e3", "NaN", "+Inf", "-Inf", "0x1F", "1_000",
		"99999999999999999999", "-9223372036854775808", "3.14159", "20010230", "99991231",
		"235960", " ", "\t", "=", "ACC", "REJ", "XXX", "001", "012", "AG", "LF", "WE",
	}
	mutSegNames = []string{
		"EDI_DC40", "E1EDK01", "E1EDK02", "E1EDK03", "E1EDKA1", "E1EDKT1",
		"E1EDP01", "E1EDP19", "E1EDP20", "E9ZZZ", "",
	}
	mutKeys = []string{
		"MESTYP", "DOCNUM", "CREDAT", "CRETIM", "BELNR", "CURCY", "ACTION", "QUALF",
		"IDDAT", "DATUM", "PARVW", "PARTN", "NAME1", "POSEX", "MENGE", "VPREI",
		"IDTNR", "KTEXT", "EDATU", "TDLINE",
	}
	mutMestyp = []string{"ORDERS", "ORDRSP", "INVOIC", "orders", ""}
)

// mutate applies one random structural or byte-level edit to an IDoc.
func mutate(r *rand.Rand, doc []byte) []byte {
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	lines := strings.Split(string(doc), "\n")
	line := r.Intn(len(lines))
	switch r.Intn(12) {
	case 0: // overwrite a byte
		if len(doc) > 0 {
			out := append([]byte(nil), doc...)
			out[r.Intn(len(out))] = mutBytes[r.Intn(len(mutBytes))]
			return out
		}
	case 1: // insert a byte
		i := r.Intn(len(doc) + 1)
		return append(append(append([]byte(nil), doc[:i]...), mutBytes[r.Intn(len(mutBytes))]), doc[i:]...)
	case 2: // delete a short run
		if len(doc) > 0 {
			i := r.Intn(len(doc))
			j := min(len(doc), i+1+r.Intn(8))
			return append(append([]byte(nil), doc[:i]...), doc[j:]...)
		}
	case 3: // duplicate a line
		lines = append(lines[:line+1], append([]string{lines[line]}, lines[line+1:]...)...)
	case 4: // delete a line
		lines = append(lines[:line], lines[line+1:]...)
	case 5: // swap two lines
		other := r.Intn(len(lines))
		lines[line], lines[other] = lines[other], lines[line]
	case 6: // rename a segment
		if _, rest, ok := strings.Cut(lines[line], "\t"); ok {
			lines[line] = pick(mutSegNames) + "\t" + rest
		} else {
			lines[line] = pick(mutSegNames)
		}
	case 7: // append a (possibly repeated or empty) field
		lines[line] += "\t" + pick(mutKeys) + "=" + pick(mutTokens)
	case 8: // replace a field's value
		fields := strings.Split(lines[line], "\t")
		if len(fields) > 1 {
			i := 1 + r.Intn(len(fields)-1)
			k, _, _ := strings.Cut(fields[i], "=")
			fields[i] = k + "=" + pick(mutTokens)
			lines[line] = strings.Join(fields, "\t")
		}
	case 9: // change the message type
		for i, l := range lines {
			for _, m := range []string{"MESTYP=ORDERS", "MESTYP=ORDRSP", "MESTYP=INVOIC"} {
				if strings.Contains(l, m) {
					lines[i] = strings.Replace(l, m, "MESTYP="+pick(mutMestyp), 1)
				}
			}
		}
	case 10: // insert a blank or whitespace-only line
		lines = append(lines[:line], append([]string{pick([]string{"", " ", "\t", "\r", " \t "})}, lines[line:]...)...)
	case 11: // drop a field separator, gluing two fields
		lines[line] = strings.Replace(lines[line], "\t", "", 1)
	}
	return []byte(strings.Join(lines, "\n"))
}

// TestCodecMatchesReference runs seeded mutations of the golden documents
// through the codec and the reference: error texts, decoded documents and
// re-encoded bytes must all agree.
func TestCodecMatchesReference(t *testing.T) {
	const perType = 34000
	r := rand.New(rand.NewSource(20010903))
	type target struct {
		name  string
		seed  func() ([]byte, error)
		check func(*testing.T, []byte) bool
	}
	for _, tg := range []target{
		{"ORDERS", sampleOrders().Encode, ordersPair.checkDecode},
		{"ORDRSP", sampleOrdrsp().Encode, ordrspPair.checkDecode},
		{"INVOIC", sampleInvoic().Encode, invoicPair.checkDecode},
	} {
		golden, err := tg.seed()
		if err != nil {
			t.Fatal(err)
		}
		accepted := 0
		for i := 0; i < perType; i++ {
			doc := golden
			for n := 1 + r.Intn(3); n > 0; n-- {
				doc = mutate(r, doc)
			}
			if tg.check(t, doc) {
				accepted++
			}
		}
		t.Logf("%s: %d of %d mutations decoded", tg.name, accepted, perType)
		if accepted == 0 || accepted == perType {
			t.Errorf("%s: %d of %d mutations decoded; the mutator no longer reaches both outcomes", tg.name, accepted, perType)
		}
	}
}

// TestEncodeMatchesReference encodes documents the decoders cannot produce
// from the golden files: reserved characters in every field, empty fields,
// negative and wide numbers, odd floats and far-off dates.
func TestEncodeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	str := func() string {
		return []string{"", "x", "a\tb", "a\nb", "a=b", "=", "Acme Corp", " "}[r.Intn(8)]
	}
	num := func() int {
		return []int{0, 7, -7, 42, -123456, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64, 999999, -99999}[r.Intn(11)]
	}
	price := func() float64 {
		return []float64{0, 1450, 480.25, -3.5, 1e21, 1e-7, math.Inf(1), math.NaN(), math.MaxFloat64}[r.Intn(9)]
	}
	when := func() time.Time {
		return []time.Time{
			{}, time.Date(2001, 9, 3, 9, 30, 0, 0, time.UTC), time.Date(12345, 1, 2, 3, 4, 5, 0, time.UTC),
			time.Date(-44, 3, 15, 0, 0, 0, 0, time.UTC), time.Date(2001, 9, 3, 9, 30, 0, 0, time.FixedZone("X", 3600)),
		}[r.Intn(5)]
	}
	status := func() AckStatusCode {
		return []AckStatusCode{StatusAccepted, StatusRejected, StatusBackorder, StatusPartial, "", "X=Y"}[r.Intn(6)]
	}
	partner := func() Partner { return Partner{PartnerID: str(), Name: str(), DUNS: str()} }
	for i := 0; i < 3000; i++ {
		o := &Orders{DocNum: num(), SenderPartner: str(), ReceiverPartner: str(), CreatedAt: when(),
			PONumber: str(), Currency: str(), Buyer: partner(), Seller: partner(), ShipTo: str(), Note: str()}
		for n := r.Intn(3); n > 0; n-- {
			o.Items = append(o.Items, Item{Posex: num(), SKU: str(), Description: str(), Quantity: num(), UnitPrice: price()})
		}
		ordersPair.checkEncode(t, o)

		a := &Ordrsp{DocNum: num(), SenderPartner: str(), ReceiverPartner: str(), CreatedAt: when(),
			AckNumber: str(), PONumber: str(), Status: status(), Buyer: partner(), Seller: partner(), Note: str()}
		for n := r.Intn(3); n > 0; n-- {
			a.Items = append(a.Items, AckItem{Posex: num(), Status: status(), Quantity: num(), ShipDate: when()})
		}
		ordrspPair.checkEncode(t, a)

		v := &Invoic{DocNum: num(), SenderPartner: str(), ReceiverPartner: str(), CreatedAt: when(),
			InvoiceNumber: str(), PONumber: str(), Currency: str(), DueDate: when(),
			Buyer: partner(), Seller: partner(), Note: str()}
		for n := r.Intn(3); n > 0; n-- {
			v.Items = append(v.Items, InvoiceItem{Posex: num(), SKU: str(), Description: str(), Quantity: num(), UnitPrice: price()})
		}
		invoicPair.checkEncode(t, v)
	}
}
