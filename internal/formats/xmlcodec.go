package formats

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// XMLDoc is the codec of one XML document type: the root element's name
// and the field table of the struct it maps to. It decodes and encodes
// exactly as encoding/xml does for a struct whose fields carry the tags the
// table spells (Unmarshal after checking the root element; an Encoder
// indenting by two spaces after xml.Header, plus a final newline), without
// reflection: one pass over the input builds the document, with every
// string a window of one values-only string (see Values), and the printer
// appends straight into a pooled buffer.
type XMLDoc[T any] struct {
	pkg, root string
	xmlName   func(*T) *xml.Name
	body      *XMLStruct[T]
}

// NewXMLDoc returns the codec of documents with root element root, whose
// XMLName field xmlName returns, and whose other fields the table lists.
// pkg prefixes every error ("rosettanet" gives "rosettanet: decode: ...").
func NewXMLDoc[T any](pkg, root string, xmlName func(*T) *xml.Name, fields ...XMLField[T]) *XMLDoc[T] {
	return &XMLDoc[T]{pkg: pkg, root: root, xmlName: xmlName, body: NewXMLStruct(fields...)}
}

// XMLStruct is the field table of one struct type: its element fields in
// struct order, each spelling its tag.
type XMLStruct[T any] struct{ fields []XMLField[T] }

// NewXMLStruct returns the table of the given fields.
func NewXMLStruct[T any](fields ...XMLField[T]) *XMLStruct[T] {
	return &XMLStruct[T]{fields: fields}
}

// XMLField is one element field of T: its tag's path ("a>b>c" gives
// parents a, b and name c) and omitempty flag, and how to decode it,
// print it and tell whether it is empty.
type XMLField[T any] struct {
	parents   []string
	name      string
	omitEmpty bool
	decode    func(*xmlDecoder, *T) error
	print     func(*xmlPrinter, *T)
	empty     func(*T) bool
}

func newXMLField[T any](tag string) XMLField[T] {
	path, opts, _ := strings.Cut(tag, ",")
	names := strings.Split(path, ">")
	return XMLField[T]{
		parents:   names[:len(names)-1],
		name:      names[len(names)-1],
		omitEmpty: opts == "omitempty",
	}
}

// XMLString is a string field with the given tag.
func XMLString[T any](tag string, get func(*T) *string) XMLField[T] {
	f := newXMLField[T](tag)
	name := f.name
	f.decode = func(d *xmlDecoder, v *T) error {
		mark, err := d.leaf()
		if err == nil {
			d.s.vals.setFrom(get(v), mark)
		}
		return err
	}
	f.print = func(p *xmlPrinter, v *T) {
		p.start(name)
		p.escape(*get(v))
		p.end(name)
	}
	f.empty = func(v *T) bool { return *get(v) == "" }
	return f
}

// XMLInt is an int field with the given tag.
func XMLInt[T any](tag string, get func(*T) *int) XMLField[T] {
	f := newXMLField[T](tag)
	name := f.name
	f.decode = func(d *xmlDecoder, v *T) error {
		mark, err := d.leaf()
		if err != nil {
			return err
		}
		src := d.s.vals.buf[mark:]
		d.s.vals.buf = d.s.vals.buf[:mark]
		if len(src) == 0 {
			*get(v) = 0
			return nil
		}
		n, err := strconv.ParseInt(strings.TrimSpace(string(src)), 10, strconv.IntSize)
		if err != nil {
			return err
		}
		*get(v) = int(n)
		return nil
	}
	f.print = func(p *xmlPrinter, v *T) {
		p.start(name)
		p.b = strconv.AppendInt(p.b, int64(*get(v)), 10)
		p.end(name)
	}
	f.empty = func(v *T) bool { return *get(v) == 0 }
	return f
}

// XMLFloat is a float64 field with the given tag.
func XMLFloat[T any](tag string, get func(*T) *float64) XMLField[T] {
	f := newXMLField[T](tag)
	name := f.name
	f.decode = func(d *xmlDecoder, v *T) error {
		mark, err := d.leaf()
		if err != nil {
			return err
		}
		src := d.s.vals.buf[mark:]
		d.s.vals.buf = d.s.vals.buf[:mark]
		if len(src) == 0 {
			*get(v) = 0
			return nil
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(string(src)), 64)
		if err != nil {
			return err
		}
		*get(v) = x
		return nil
	}
	f.print = func(p *xmlPrinter, v *T) {
		p.start(name)
		p.b = strconv.AppendFloat(p.b, *get(v), 'g', -1, 64)
		p.end(name)
	}
	f.empty = func(v *T) bool { return math.Float64bits(*get(v)) == 0 }
	return f
}

// XMLElem is a struct field with the given tag, mapped by sub. A repeated
// element merges into the same struct.
func XMLElem[T, U any](tag string, sub *XMLStruct[U], get func(*T) *U) XMLField[T] {
	f := newXMLField[T](tag)
	name := f.name
	f.decode = func(d *xmlDecoder, v *T) error { return decodeBody(d, sub, get(v)) }
	f.print = func(p *xmlPrinter, v *T) {
		p.start(name)
		printFields(p, sub, get(v))
		p.end(name)
	}
	f.empty = func(*T) bool { return false }
	return f
}

// XMLList is a slice-of-structs field with the given tag, each element
// mapped by sub: every occurrence of the element appends one.
func XMLList[T, U any](tag string, sub *XMLStruct[U], get func(*T) *[]U) XMLField[T] {
	f := newXMLField[T](tag)
	name := f.name
	open, qualified := []byte("<"+name), []byte(":"+name)
	f.decode = func(d *xmlDecoder, v *T) error {
		l := get(v)
		if cap(*l) == 0 {
			// Pending string assignments point into the slice, so it must
			// never move. Every start tag whose local name is name spells
			// "<name" or "<prefix:name", so this bounds the appends: the
			// ones from this tag on.
			rest := d.s.data[d.s.name.start-1:]
			*l = make([]U, 0, bytes.Count(rest, open)+bytes.Count(rest, qualified))
		}
		var zero U
		*l = append(*l, zero)
		return decodeBody(d, sub, &(*l)[len(*l)-1])
	}
	f.print = func(p *xmlPrinter, v *T) {
		l := *get(v)
		for i := range l {
			p.start(name)
			printFields(p, sub, &l[i])
			p.end(name)
		}
	}
	f.empty = func(v *T) bool { return len(*get(v)) == 0 }
	return f
}

// xmlDecoder is the decode state of one document; it is pooled.
type xmlDecoder struct {
	s xmlScanner
	// openArr backs s.open for documents up to its depth.
	openArr [16]span
}

var xmlDecoderPool = sync.Pool{New: func() any { return new(xmlDecoder) }}

// Decode parses data into a new document. It accepts and rejects what
// encoding/xml's Unmarshal accepts and rejects once the first element is
// checked to be the root; it reads nothing after the root's end tag.
func (x *XMLDoc[T]) Decode(data []byte) (*T, error) {
	d := xmlDecoderPool.Get().(*xmlDecoder)
	d.s = xmlScanner{data: data, vals: GetValues(), open: d.openArr[:0], attrs: d.s.attrs[:0]}
	defer func() {
		d.s.vals.Release()
		d.s = xmlScanner{attrs: d.s.attrs[:0]}
		xmlDecoderPool.Put(d)
	}()
	v := new(T)
	if err := x.decode(d, v); err != nil {
		return nil, err
	}
	d.s.vals.Resolve()
	return v, nil
}

func (x *XMLDoc[T]) decode(d *xmlDecoder, v *T) error {
	// Everything before the root is tokenized and checked, then dropped;
	// the root's attributes are kept for its name space.
	d.s.keepAttrs = true
	for {
		tok, err := d.s.next(false)
		if err != nil {
			return fmt.Errorf("%s: decode: %w", x.pkg, err)
		}
		if tok == tokStart {
			break
		}
	}
	d.s.keepAttrs = false
	if local := d.s.bytes(d.s.local); string(local) != x.root {
		return fmt.Errorf("%s: decode: root element %q, want %q", x.pkg, local, x.root)
	}
	x.rootName(d, x.xmlName(v))
	if err := decodeBody(d, x.body, v); err != nil {
		return fmt.Errorf("%s: decode: %w", x.pkg, err)
	}
	return nil
}

// rootName sets n to the root element's name as encoding/xml's Token
// translates it: a prefix bound by an xmlns:prefix attribute, or no prefix
// under an xmlns attribute, becomes that attribute's value; the xml prefix
// becomes its fixed URL; any other prefix is kept as it is.
func (x *XMLDoc[T]) rootName(d *xmlDecoder, n *xml.Name) {
	s := &d.s
	n.Local = x.root
	prefix := s.bytes(s.prefix)
	switch string(prefix) {
	case "xmlns":
		n.Space = "xmlns"
		return
	case "xml":
		n.Space = "http://www.w3.org/XML/1998/namespace"
		return
	}
	binding := -1
	for i, a := range s.attrs {
		ap, al := s.bytes(a.prefix), s.bytes(a.local)
		if len(prefix) == 0 && len(ap) == 0 && string(al) == "xmlns" ||
			len(prefix) > 0 && string(ap) == "xmlns" && bytes.Equal(al, prefix) {
			binding = i
		}
	}
	// Only the chosen value stays in the values buffer.
	value := prefix
	if binding >= 0 {
		v := s.attrs[binding].value
		value = s.vals.buf[v.start:v.end]
	}
	s.vals.buf = append(s.vals.buf[:0], value...)
	s.vals.setFrom(&n.Space, 0)
}

// decodeBody maps the content of the element just started onto v until
// that element's end tag, as encoding/xml's unmarshal does for a struct.
func decodeBody[T any](d *xmlDecoder, t *XMLStruct[T], v *T) error {
	for {
		tok, err := d.s.next(false)
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			consumed, err := decodePath(d, t, v, nil)
			if err != nil {
				return err
			}
			if !consumed {
				if err := d.skip(); err != nil {
					return err
				}
			}
		case tokEnd:
			return nil
		}
	}
}

// decodePath is encoding/xml's unmarshalPath: the first field, in struct
// order, under parents whose name is the element's local name decodes it;
// failing that, the first field whose path continues through the element
// makes it a parent, and its children are matched one level down. It
// reports whether it consumed the element.
func decodePath[T any](d *xmlDecoder, t *XMLStruct[T], v *T, parents []string) (bool, error) {
	local := d.s.bytes(d.s.local)
	recurse := false
fields:
	for i := range t.fields {
		f := &t.fields[i]
		if len(f.parents) < len(parents) {
			continue
		}
		for j := range parents {
			if parents[j] != f.parents[j] {
				continue fields
			}
		}
		if len(f.parents) == len(parents) && f.name == string(local) {
			return true, f.decode(d, v)
		}
		if len(f.parents) > len(parents) && f.parents[len(parents)] == string(local) {
			recurse = true
			parents = f.parents[:len(parents)+1]
			break
		}
	}
	if !recurse {
		return false, nil
	}
	for {
		tok, err := d.s.next(false)
		if err != nil {
			return true, err
		}
		switch tok {
		case tokStart:
			consumed, err := decodePath(d, t, v, parents)
			if err != nil {
				return true, err
			}
			if !consumed {
				if err := d.skip(); err != nil {
					return true, err
				}
			}
		case tokEnd:
			return true, nil
		}
	}
}

// leaf appends the element's direct character data to the values buffer,
// skipping its child elements, and returns where the data starts.
func (d *xmlDecoder) leaf() (mark int, err error) {
	mark = len(d.s.vals.buf)
	for {
		tok, err := d.s.next(true)
		if err != nil {
			return mark, err
		}
		switch tok {
		case tokStart:
			if err := d.skip(); err != nil {
				return mark, err
			}
		case tokEnd:
			return mark, nil
		}
	}
}

// skip consumes the element just started, at any depth: the scanner keeps
// the open elements, so only the depth is counted here.
func (d *xmlDecoder) skip() error {
	depth := 0
	for {
		tok, err := d.s.next(false)
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			depth++
		case tokEnd:
			if depth == 0 {
				return nil
			}
			depth--
		}
	}
}

// xmlPrinter renders elements as encoding/xml's Encoder does with
// Indent("", "  "): every start tag on a new line at its depth, and an end
// tag on its own line unless its element holds no child element.
type xmlPrinter struct {
	b                      []byte
	depth                  int
	putNewline, indentedIn bool
}

var xmlPrinterPool = sync.Pool{New: func() any { return new(xmlPrinter) }}

// Encode renders v as encoding/xml's Encoder renders it, after xml.Header
// and followed by a newline. The caller validates v first.
func (x *XMLDoc[T]) Encode(v *T) []byte {
	p := xmlPrinterPool.Get().(*xmlPrinter)
	p.b = append(p.b[:0], xml.Header...)
	p.start(x.root)
	printFields(p, x.body, v)
	p.end(x.root)
	p.b = append(p.b, '\n')
	out := bytes.Clone(p.b)
	if cap(p.b) <= maxPooledBuffer {
		*p = xmlPrinter{b: p.b[:0]}
		xmlPrinterPool.Put(p)
	}
	return out
}

// printFields is encoding/xml's marshalStruct: consecutive fields share
// the parent elements their paths have in common; a field's missing
// parents open before it (even when omitempty then omits the field), and
// parents it does not share close after the last field that does.
func printFields[T any](p *xmlPrinter, t *XMLStruct[T], v *T) {
	var stack []string // the open parents, a prefix of the last field's
	for i := range t.fields {
		f := &t.fields[i]
		split := 0
		for split < len(f.parents) && split < len(stack) && f.parents[split] == stack[split] {
			split++
		}
		for j := len(stack) - 1; j >= split; j-- {
			p.end(stack[j])
		}
		for _, name := range f.parents[split:] {
			p.start(name)
		}
		stack = f.parents
		if f.omitEmpty && f.empty(v) {
			continue
		}
		f.print(p, v)
	}
	for j := len(stack) - 1; j >= 0; j-- {
		p.end(stack[j])
	}
}

func (p *xmlPrinter) start(name string) {
	p.indent(1)
	p.b = append(p.b, '<')
	p.b = append(p.b, name...)
	p.b = append(p.b, '>')
}

func (p *xmlPrinter) end(name string) {
	p.indent(-1)
	p.b = append(p.b, '<', '/')
	p.b = append(p.b, name...)
	p.b = append(p.b, '>')
}

// indent is encoding/xml's writeIndent for an empty prefix and a
// two-space indent.
func (p *xmlPrinter) indent(depthDelta int) {
	if depthDelta < 0 {
		p.depth--
		if p.indentedIn {
			p.indentedIn = false
			return
		}
	}
	if p.putNewline {
		p.b = append(p.b, '\n')
	} else {
		p.putNewline = true
	}
	for i := 0; i < p.depth; i++ {
		p.b = append(p.b, ' ', ' ')
	}
	if depthDelta > 0 {
		p.depth++
		p.indentedIn = true
	}
}

// escape appends s escaped as encoding/xml's EscapeString escapes it:
// markup characters, quotes, tab, newline and carriage return become
// references, and invalid UTF-8 and characters outside the XML range
// become U+FFFD.
func (p *xmlPrinter) escape(s string) {
	last := 0
	for i := 0; i < len(s); {
		var esc string
		c := s[i]
		width := 1
		switch c {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if c < utf8.RuneSelf {
				if c >= 0x20 {
					i++
					continue
				}
				esc = "\uFFFD"
				break
			}
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if isInCharacterRange(r) && !(r == utf8.RuneError && width == 1) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		p.b = append(p.b, s[last:i]...)
		p.b = append(p.b, esc...)
		i += width
		last = i
	}
	p.b = append(p.b, s[last:]...)
}
