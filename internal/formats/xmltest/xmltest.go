// Package xmltest holds the differential test harness of the XML protocol
// codecs (packages rosettanet and oagis): a mutator steered by an XML
// vocabulary, adversarial field values for the encoders, and a codec pair
// that holds a codec to its encoding/xml reference.
package xmltest

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Pair couples one document type's codec with its reference.
type Pair[T any] struct {
	// Pkg is the error prefix of both ("rosettanet", "oagis").
	Pkg               string
	Decode, RefDecode func([]byte) (*T, error)
	Encode, RefEncode func(*T) ([]byte, error)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// CheckDecode decodes data with the codec and the reference and fails the
// test unless both accept the same document, which then re-encodes to the
// same bytes with both, or both reject. A rejection's text must match the
// reference's, except that where the reference reports an XML syntax error
// the codec need only report one too. It reports whether data decoded.
func (c Pair[T]) CheckDecode(t testing.TB, data []byte) bool {
	t.Helper()
	got, err := c.Decode(data)
	want, refErr := c.RefDecode(data)
	if refErr != nil {
		var syntax *xml.SyntaxError
		switch {
		case err == nil:
			t.Fatalf("decoded, reference rejects: %v\ninput: %q", refErr, data)
		case errors.As(refErr, &syntax):
			if prefix := c.Pkg + ": decode: XML syntax error on line "; !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("decode error %q, reference %q: want the prefix %q\ninput: %q", err, refErr, prefix, data)
			}
		case err.Error() != refErr.Error():
			t.Fatalf("decode error %q, reference %q\ninput: %q", err, refErr, data)
		}
		return false
	}
	if err != nil {
		t.Fatalf("decode error %q, reference accepts\ninput: %q", err, data)
	}
	if !SameDoc(got, want) {
		t.Fatalf("decoded\n%#v\nreference\n%#v\ninput: %q", got, want, data)
	}
	c.CheckEncode(t, got)
	return true
}

// SameDoc is reflect.DeepEqual, except that a NaN amount ("NaN" decodes)
// equals NaN.
func SameDoc(a, b any) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	ra, rb := fmt.Sprintf("%#v", a), fmt.Sprintf("%#v", b)
	return ra == rb && strings.Contains(ra, "NaN")
}

// CheckEncode encodes v with the codec and the reference and fails the
// test unless the bytes and error texts agree.
func (c Pair[T]) CheckEncode(t testing.TB, v *T) {
	t.Helper()
	wire, err := c.Encode(v)
	refWire, refErr := c.RefEncode(v)
	if errText(err) != errText(refErr) {
		t.Fatalf("encode error %q, reference %q\ndocument: %#v", errText(err), errText(refErr), v)
	}
	if !bytes.Equal(wire, refWire) {
		t.Fatalf("encoded\n%q\nreference\n%q", wire, refWire)
	}
}

// The mutation vocabulary: what steers a mutated document into the
// decoders' edge cases.
var (
	mutBytes = []byte("<>/=&;#x\"' \t\r\n:]![-?\x00\xff\xc3\xa9")

	// prolog is what may stand before the root.
	prolog = []string{
		`<?xml version="1.0" encoding="UTF-8"?>`, `<?xml version="1.1"?>`, `<?xml version='1.0' encoding='utf-8'?>`,
		`<?xml version="1.0" encoding="ISO-8859-1"?>`, `<?xml encoding="UTF-16"?>`, `<?xml?>`, `<?XML version="2"?>`,
		`<?pi some data?>`, `<?1pi?>`, "<?\u00e9?>", `<? pi?>`, `<!-- comment -->`, `<!---->`, `<!-- a --x -->`,
		"<!-- \xff\x00 -->", `<!- bad -->`, `<!DOCTYPE r [<!ENTITY e "v">]>`, `<!DOCTYPE r SYSTEM "a>b">`,
		`<!DOCTYPE r [<!-- c --> <!ELEMENT r ANY>]>`, `<!DOCTYPE r [<x>`, `<![CDATA[x]]>`, `<![CDATA[x`, `<![CDAT[x]]>`,
		"\xef\xbb\xbf", "junk", " \r\n\t", "]]>", "&amp;", "&nbsp;", "</Stray>",
	}
	// textTokens are character data and references.
	textTokens = []string{
		"&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x41;", "&#X41;", "&#0;", "&#xD800;", "&#x110000;",
		"&#xFFFE;", "&#9;", "&#;", "&#x;", "&e;", "&", "&amp", "&lt ;", "]]>", "]]", "\r\n", "\r", "\x00", "\x01",
		"\xff", "\xc3\xa9", "\xef\xbf\xbe", "\xed\xa0\x80", "<![CDATA[c]]>", "<![CDATA[<&]]>", "<!-- c -->",
		"<?pi x?>", " ", "\t",
	}
	// names are element names: the documents' own, foreign, prefixed and
	// invalid ones.
	names = []string{
		"x", "Unknown", "p:x", "a:b:c", ":x", "x:", "\u00e9", "x\u00e9", "_x", "1x", ".x", "-x", "x.y-z", "\xff",
		"LineNumber", "Quantity", "DocumentID", "Header", "PurchaseOrder", "ProductLineItem", "Line",
		"DataArea", "ApplicationArea", "fromRole", "toRole", "MonetaryAmount", "FinancialAmount", "UnitPrice",
	}
	// attrs are attribute lists for a start tag.
	attrs = []string{
		` a="1"`, ` a='1'`, ` a = "1"`, ` a=1`, ` a`, ` a="<"`, ` a="&amp;"`, ` a="&bad;"`, ` a="]]>"`,
		` xmlns="urn:x"`, ` xmlns:p="urn:p"`, ` xmlns:p=""`, ` xml:lang="en"`, ` a:b:c="1"`, " \u00e9=\"1\"",
		` a="1"b="2"`, ` a="x`, " a=\"\xff\"", ` /`,
	}
	// numbers are values for the numeric leaves.
	numbers = []string{
		"", " ", "0", "7", " 7 ", "\t7\n", "+7", "-7", "007", "0x1F", "1e3", "1.5", ".5", "99999999999999999999",
		"-9223372036854775808", "NaN", "nan", "Inf", "-Inf", "+Infinity", "1_000", "0x1p-2", "1e400", "\u00a07",
	}
)

func pick[S ~[]E, E any](r *rand.Rand, xs S) E { return xs[r.Intn(len(xs))] }

// Mutate applies one random edit to an XML document.
func Mutate(r *rand.Rand, doc []byte) []byte {
	s := string(doc)
	lines := strings.Split(s, "\n")
	line := r.Intn(len(lines))
	// at is a random byte offset; tag is the offset just after a random
	// '>' (or 0), where markup may be inserted.
	at := r.Intn(len(s) + 1)
	tag := 0
	if n := strings.Count(s, ">"); n > 0 {
		k := r.Intn(n)
		for i := 0; i < len(s); i++ {
			if s[i] == '>' {
				if k == 0 {
					tag = i + 1
					break
				}
				k--
			}
		}
	}
	insert := func(i int, x string) []byte { return []byte(s[:i] + x + s[i:]) }
	switch r.Intn(16) {
	case 0: // overwrite a byte
		if len(doc) > 0 {
			out := []byte(s)
			out[r.Intn(len(out))] = mutBytes[r.Intn(len(mutBytes))]
			return out
		}
	case 1: // insert a byte
		return insert(at, string(mutBytes[r.Intn(len(mutBytes))]))
	case 2: // delete a short run
		if len(s) > 0 {
			i := r.Intn(len(s))
			j := min(len(s), i+1+r.Intn(8))
			return []byte(s[:i] + s[j:])
		}
	case 3: // character data or a reference after a tag
		return insert(tag, pick(r, textTokens))
	case 4: // something from the prolog, before the root or after a tag
		if r.Intn(2) == 0 {
			i := strings.Index(s, "?>") + 2 // after the declaration
			if r.Intn(3) == 0 {
				i = 0
			}
			return insert(i, pick(r, prolog))
		}
		return insert(tag, pick(r, prolog))
	case 5: // replace a leaf's value with a number or a text token
		if i := strings.Index(lines[line], ">"); i >= 0 {
			if j := strings.LastIndex(lines[line], "</"); j > i {
				v := pick(r, numbers)
				if r.Intn(2) == 0 {
					v = pick(r, textTokens)
				}
				lines[line] = lines[line][:i+1] + v + lines[line][j:]
			}
		}
	case 6: // duplicate a line: a repeated element, or a broken nesting
		lines = append(lines[:line+1], append([]string{lines[line]}, lines[line+1:]...)...)
	case 7: // delete a line
		lines = append(lines[:line], lines[line+1:]...)
	case 8: // swap two lines
		other := r.Intn(len(lines))
		lines[line], lines[other] = lines[other], lines[line]
	case 9: // an unknown element, nested deep, after a tag
		depth := 1 + r.Intn(6)
		if r.Intn(8) == 0 {
			depth = 200 + r.Intn(200)
		}
		var b strings.Builder
		for i := 0; i < depth; i++ {
			b.WriteString("<u>")
		}
		b.WriteString(pick(r, textTokens))
		for i := 0; i < depth; i++ {
			b.WriteString("</u>")
		}
		return insert(tag, b.String())
	case 10: // rename an element: its start tag, or its start and end tags
		if i := strings.Index(lines[line], "<"); i >= 0 {
			rest := lines[line][i+1:]
			if j := strings.IndexAny(rest, "> /"); j > 0 && rest[0] != '/' && rest[0] != '?' {
				old, name := rest[:j], pick(r, names)
				lines[line] = lines[line][:i+1] + name + rest[j:]
				if r.Intn(2) == 0 {
					lines[line] = strings.Replace(lines[line], "</"+old+">", "</"+name+">", 1)
				}
			}
		}
	case 11: // attributes on a start tag
		if i := strings.Index(lines[line], ">"); i > 0 && !strings.Contains(lines[line][:i], "/") && !strings.Contains(lines[line][:i], "?") {
			lines[line] = lines[line][:i] + pick(r, attrs) + lines[line][i:]
		}
	case 12: // prefix the root, or any element, with a bound or unbound prefix
		if i := strings.Index(lines[line], "<"); i >= 0 && i+1 < len(lines[line]) && lines[line][i+1] != '?' {
			p := pick(r, []string{"p:", "q:", "xml:", "xmlns:", ""})
			l := lines[line]
			l = l[:i+1] + p + l[i+1:]
			if k := strings.Index(l, "</"); k >= 0 && r.Intn(2) == 0 {
				l = l[:k+2] + p + l[k+2:]
			}
			lines[line] = l
		}
	case 13: // garbage after the root
		return []byte(s + pick(r, []string{"<", "<x>", "</y>", "garbage", "\xff", "<?xml version=\"2\"?>", "&"}))
	case 14: // a self-closing or empty element
		if i := strings.Index(lines[line], ">"); i >= 0 {
			if j := strings.LastIndex(lines[line], "</"); j > i {
				if r.Intn(2) == 0 {
					lines[line] = lines[line][:i] + "/>"
				} else {
					lines[line] = lines[line][:i+1] + lines[line][j:]
				}
			}
		}
	case 15: // line endings
		lines[line] += pick(r, []string{"\r", "\r\n", "\n\r", " \t"})
	}
	return []byte(strings.Join(lines, "\n"))
}

// Adversarial field values for the encoders.
var (
	strs = []string{
		"", "x", "Acme Corp", " lead and trail ", "a&b", "<tag>", `"quoted" 'single'`, "tab\there",
		"line\nbreak", "cr\rlf\r\n", "\x00\x01\x1f", "\x7f", "\xff\xfe", "\u00e9", "\uFFFD", "\xef\xbf",
		"\U0001F600", "\xed\xa0\x80", "\uFFFE", "]]>", "&amp;", "-->", "\u00a0", "\u2028",
	}
	ints   = []int{0, 1, 7, -7, 42, 1 << 40, math.MaxInt64, math.MinInt64}
	floats = []float64{0, math.Copysign(0, -1), 1450, 480.25, -3.5, 0.1 + 0.2, 1e20, 1e21, 1e-7, 5e-324,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
)

// Str returns an adversarial string, or ok with probability 1/2.
func Str(r *rand.Rand, ok string) string {
	if r.Intn(2) == 0 {
		return ok
	}
	return pick(r, strs)
}

// Int returns an adversarial int, or ok with probability 1/2.
func Int(r *rand.Rand, ok int) int {
	if r.Intn(2) == 0 {
		return ok
	}
	return pick(r, ints)
}

// Float returns an adversarial float, or ok with probability 1/2.
func Float(r *rand.Rand, ok float64) float64 {
	if r.Intn(2) == 0 {
		return ok
	}
	return pick(r, floats)
}
