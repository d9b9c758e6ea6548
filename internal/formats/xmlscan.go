package formats

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// xmlScanner tokenizes an XML document held in memory with the verdicts of
// encoding/xml's Decoder in strict mode (go1.24's rawToken, text, nsname
// and Token): the same inputs are accepted and rejected. It differs only in
// what it keeps. Character data and attribute values are decoded into the
// values buffer (the caller truncates what it does not need); names are
// windows of the input; comments, processing instructions and directives
// are checked and dropped. Error texts follow encoding/xml's but are not
// guaranteed to match them.
type xmlScanner struct {
	data []byte
	pos  int
	vals *Values // decoded text and attribute values are appended to vals.buf

	// open holds the raw qualified names of the open elements, innermost
	// last: an end tag must repeat its start tag's prefix and local name.
	open []span

	// The last start or end tag: its raw name and the name split as
	// nsname splits it.
	name, prefix, local span
	// attrs holds the last start tag's attributes when keepAttrs is set;
	// otherwise their values are checked and dropped.
	keepAttrs bool
	attrs     []xmlAttr
	// needClose is set after a self-closing start tag: the next token is
	// its end tag.
	needClose bool
}

// span is a window [start, end) of the input.
type span struct{ start, end int }

// xmlAttr is one kept attribute: its name split like an element name, and
// its decoded value as a window of the values buffer.
type xmlAttr struct {
	prefix, local span
	value         span
}

type xmlToken int

const (
	tokStart xmlToken = iota
	tokEnd
	tokText  // character data or a CDATA section
	tokOther // a comment, processing instruction or directive
)

func (s *xmlScanner) bytes(sp span) []byte { return s.data[sp.start:sp.end] }

// syntaxError reports msg at the scanner's line.
func (s *xmlScanner) syntaxError(msg string) error {
	line := 1 + bytes.Count(s.data[:min(s.pos, len(s.data))], []byte{'\n'})
	return fmt.Errorf("XML syntax error on line %d: %s", line, msg)
}

func (s *xmlScanner) errEOF() error { return s.syntaxError("unexpected EOF") }

// mustGet returns the next byte, or an "unexpected EOF" error.
func (s *xmlScanner) mustGet() (byte, error) {
	if s.pos >= len(s.data) {
		return 0, s.errEOF()
	}
	b := s.data[s.pos]
	s.pos++
	return b, nil
}

// space skips white space.
func (s *xmlScanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// next reads one token. Text is appended to the values buffer; unless keep
// is set, the buffer is cut back afterwards. At the end of the input next
// returns io.EOF if no element is open.
func (s *xmlScanner) next(keep bool) (xmlToken, error) {
	if s.needClose {
		s.needClose = false
		s.open = s.open[:len(s.open)-1]
		return tokEnd, nil
	}
	if s.pos >= len(s.data) {
		if len(s.open) > 0 {
			return 0, s.errEOF()
		}
		return 0, io.EOF
	}
	if s.data[s.pos] != '<' {
		mark := len(s.vals.buf)
		err := s.text(-1, false)
		if !keep {
			s.vals.buf = s.vals.buf[:mark]
		}
		return tokText, err
	}
	s.pos++
	b, err := s.mustGet()
	if err != nil {
		return 0, err
	}
	switch b {
	case '/':
		return tokEnd, s.endTag()
	case '?':
		return tokOther, s.procInst()
	case '!':
		return s.bang(keep)
	}
	s.pos--
	return tokStart, s.startTag()
}

// endTag reads the rest of "</name>" and pops the element it closes.
func (s *xmlScanner) endTag() error {
	ok, err := s.nsname()
	if err != nil {
		return err
	}
	if !ok {
		return s.syntaxError("expected element name after </")
	}
	s.space()
	b, err := s.mustGet()
	if err != nil {
		return err
	}
	if b != '>' {
		return s.syntaxError("invalid characters between </" + string(s.bytes(s.local)) + " and >")
	}
	if len(s.open) == 0 {
		return s.syntaxError("unexpected end element </" + string(s.bytes(s.local)) + ">")
	}
	top := s.open[len(s.open)-1]
	if !bytes.Equal(s.bytes(top), s.bytes(s.name)) {
		return s.syntaxError("element <" + string(s.bytes(top)) + "> closed by </" + string(s.bytes(s.name)) + ">")
	}
	s.open = s.open[:len(s.open)-1]
	return nil
}

// startTag reads an element's start tag and pushes the element.
func (s *xmlScanner) startTag() error {
	ok, err := s.nsname()
	if err != nil {
		return err
	}
	if !ok {
		return s.syntaxError("expected element name after <")
	}
	name, prefix, local := s.name, s.prefix, s.local
	s.attrs = s.attrs[:0]
	mark := len(s.vals.buf)
	for {
		s.space()
		b, err := s.mustGet()
		if err != nil {
			return err
		}
		if b == '/' {
			if b, err = s.mustGet(); err != nil {
				return err
			}
			if b != '>' {
				return s.syntaxError("expected /> in element")
			}
			s.needClose = true
			break
		}
		if b == '>' {
			break
		}
		s.pos--
		if ok, err := s.nsname(); err != nil {
			return err
		} else if !ok {
			return s.syntaxError("expected attribute name in element")
		}
		a := xmlAttr{prefix: s.prefix, local: s.local}
		s.space()
		if b, err = s.mustGet(); err != nil {
			return err
		}
		if b != '=' {
			return s.syntaxError("attribute name without = in element")
		}
		s.space()
		if b, err = s.mustGet(); err != nil {
			return err
		}
		if b != '"' && b != '\'' {
			return s.syntaxError("unquoted or missing attribute value in element")
		}
		start := len(s.vals.buf)
		if err := s.text(int(b), false); err != nil {
			return err
		}
		if s.keepAttrs {
			a.value = span{start, len(s.vals.buf)}
			s.attrs = append(s.attrs, a)
		} else {
			s.vals.buf = s.vals.buf[:mark]
		}
	}
	// The attributes overwrote the tag's name fields.
	s.name, s.prefix, s.local = name, prefix, local
	s.open = append(s.open, name)
	return nil
}

// procInst reads the rest of "<?target ...?>". The xml declaration must
// declare version 1.0 and UTF-8, if anything.
func (s *xmlScanner) procInst() error {
	ok, err := s.checkedName()
	if err != nil {
		return err
	}
	if !ok {
		return s.syntaxError("expected target name after <?")
	}
	target := s.name
	s.space()
	start := s.pos
	var b0 byte
	for {
		b, err := s.mustGet()
		if err != nil {
			return err
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if string(s.bytes(target)) != "xml" {
		return nil
	}
	content := s.data[start : s.pos-2]
	if ver := procInstParam(content, "version="); ver != nil && string(ver) != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam(content, "encoding="); enc != nil && !bytes.EqualFold(enc, []byte("utf-8")) {
		return fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
	}
	return nil
}

// procInstParam is encoding/xml's procInst: the value of param"..." or
// param'...' in s (param ends in '='), or nil for none or an empty value.
// It is deliberately as loose as the original.
func procInstParam(s []byte, param string) []byte {
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, []byte(param))
		if k < 0 || lenp+k >= len(sub) {
			return nil
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j <= 0 {
		return nil
	}
	return s[i : i+j]
}

// bang reads the rest of a comment, CDATA section or directive after "<!".
func (s *xmlScanner) bang(keep bool) (xmlToken, error) {
	b, err := s.mustGet()
	if err != nil {
		return 0, err
	}
	switch b {
	case '-':
		if b, err = s.mustGet(); err != nil {
			return 0, err
		}
		if b != '-' {
			return 0, s.syntaxError("invalid sequence <!- not part of <!--")
		}
		var b0, b1 byte
		for {
			if b, err = s.mustGet(); err != nil {
				return 0, err
			}
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return 0, s.syntaxError(`invalid sequence "--" not allowed in comments`)
				}
				return tokOther, nil
			}
			b0, b1 = b1, b
		}
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if b, err = s.mustGet(); err != nil {
				return 0, err
			}
			if b != "CDATA["[i] {
				return 0, s.syntaxError("invalid <![ sequence")
			}
		}
		mark := len(s.vals.buf)
		err := s.text(-1, true)
		if !keep {
			s.vals.buf = s.vals.buf[:mark]
		}
		return tokText, err
	}
	return tokOther, s.directive()
}

// directive reads the rest of a directive such as <!DOCTYPE ...>: quoted
// angle brackets do not nest, and comments may be embedded. The byte after
// "<!" has been read and, as in encoding/xml, is not examined.
func (s *xmlScanner) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := s.mustGet()
		if err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
		// handle examines b; a '<' that does not open a comment hands the
		// byte after it back to handle.
		for handle := true; handle; {
			handle = false
			switch {
			case b == inquote:
				inquote = 0
			case inquote != 0:
			case b == '\'' || b == '"':
				inquote = b
			case b == '>':
				depth--
			case b == '<':
				for i := 0; i < len("!--") && !handle; i++ {
					if b, err = s.mustGet(); err != nil {
						return err
					}
					if b != "!--"[i] {
						depth++
						handle = true
					}
				}
				if handle {
					continue
				}
				var b0, b1 byte
				for {
					if b, err = s.mustGet(); err != nil {
						return err
					}
					if b0 == '-' && b1 == '-' && b == '>' {
						break
					}
					b0, b1 = b1, b
				}
			}
		}
	}
}

// text decodes character data into the values buffer, as encoding/xml's
// Decoder.text: with quote >= 0 a quoted attribute value up to that quote,
// with cdata a CDATA section up to "]]>", otherwise text up to the next
// '<' or the end of the input. The decoded bytes must be UTF-8 characters
// of the XML character range.
func (s *xmlScanner) text(quote int, cdata bool) error {
	start := len(s.vals.buf)
	var b0, b1 byte
	trunc := 0
	for {
		// A run of plain bytes is copied at once: no byte of it ends the
		// text, starts a reference, takes part in "]]>" or "\r\n", or can
		// fail the character check.
		if run := s.pos; run < len(s.data) && plainText[s.data[run]] {
			for run < len(s.data) && plainText[s.data[run]] {
				run++
			}
			s.vals.buf = append(s.vals.buf, s.data[s.pos:run]...)
			s.pos = run
			b0, b1 = 0, 0
		}
		if s.pos >= len(s.data) {
			if cdata {
				return s.syntaxError("unexpected EOF in CDATA section")
			}
			break
		}
		b := s.data[s.pos]
		s.pos++
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				trunc = 2
				break
			}
			return s.syntaxError("unescaped ]]> not in CDATA section")
		}
		if b == '<' && !cdata {
			if quote >= 0 {
				return s.syntaxError("unescaped < inside quoted string")
			}
			s.pos--
			break
		}
		if quote >= 0 && b == byte(quote) {
			break
		}
		if b == '&' && !cdata {
			if err := s.reference(); err != nil {
				return err
			}
			b0, b1 = 0, 0
			continue
		}
		// Unescaped \r and \r\n become \n.
		if b == '\r' {
			s.vals.buf = append(s.vals.buf, '\n')
		} else if b1 != '\r' || b != '\n' {
			s.vals.buf = append(s.vals.buf, b)
		}
		b0, b1 = b1, b
	}
	s.vals.buf = s.vals.buf[:len(s.vals.buf)-trunc]
	for buf := s.vals.buf[start:]; len(buf) > 0; {
		if c := buf[0]; c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return s.syntaxError(fmt.Sprintf("illegal character code %U", rune(c)))
			}
			buf = buf[1:]
			continue
		}
		r, size := utf8.DecodeRune(buf)
		if r == utf8.RuneError && size == 1 {
			return s.syntaxError("invalid UTF-8")
		}
		buf = buf[size:]
		if !isInCharacterRange(r) {
			return s.syntaxError(fmt.Sprintf("illegal character code %U", r))
		}
	}
	return nil
}

// reference decodes the character or entity reference after '&': a
// numeric reference, or one of the five predefined entities.
func (s *xmlScanner) reference() error {
	start := s.pos - 1
	b, err := s.mustGet()
	if err != nil {
		return err
	}
	if b == '#' {
		if b, err = s.mustGet(); err != nil {
			return err
		}
		base := 10
		if b == 'x' {
			base = 16
			if b, err = s.mustGet(); err != nil {
				return err
			}
		}
		digits := s.pos - 1
		for '0' <= b && b <= '9' || base == 16 && ('a' <= b && b <= 'f' || 'A' <= b && b <= 'F') {
			if b, err = s.mustGet(); err != nil {
				return err
			}
		}
		if b == ';' {
			n, err := strconv.ParseUint(string(s.data[digits:s.pos-1]), base, 64)
			if err == nil && n <= utf8.MaxRune {
				s.vals.buf = utf8.AppendRune(s.vals.buf, rune(n))
				return nil
			}
		} else {
			s.pos--
		}
	} else {
		s.pos--
		name := s.pos
		if _, err := s.readName(); err != nil {
			return err
		}
		if b, err = s.mustGet(); err != nil {
			return err
		}
		if b == ';' {
			if r, ok := predefinedEntity(s.data[name : s.pos-1]); ok {
				s.vals.buf = append(s.vals.buf, r)
				return nil
			}
		} else {
			s.pos--
		}
	}
	ent := string(s.data[start:s.pos])
	if ent[len(ent)-1] != ';' {
		ent += " (no semicolon)"
	}
	return s.syntaxError("invalid character entity " + ent)
}

func predefinedEntity(name []byte) (byte, bool) {
	switch string(name) {
	case "lt":
		return '<', true
	case "gt":
		return '>', true
	case "amp":
		return '&', true
	case "apos":
		return '\'', true
	case "quot":
		return '"', true
	}
	return 0, false
}

func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// nsname reads a name into s.name and splits it into s.prefix and s.local
// as encoding/xml's nsname does: at its colon, unless either side would be
// empty. ok is false, with no error, when no name starts here or the name
// holds more than one colon.
func (s *xmlScanner) nsname() (ok bool, err error) {
	if ok, err = s.checkedName(); !ok || err != nil {
		return ok, err
	}
	name := s.bytes(s.name)
	colon := bytes.IndexByte(name, ':')
	if colon != bytes.LastIndexByte(name, ':') {
		return false, nil
	}
	s.prefix, s.local = span{s.name.start, s.name.start}, s.name
	if colon > 0 && colon+1 < len(name) {
		s.prefix.end = s.name.start + colon
		s.local.start = s.name.start + colon + 1
	}
	return true, nil
}

// checkedName reads a name into s.name and checks that it is an XML name.
func (s *xmlScanner) checkedName() (ok bool, err error) {
	start := s.pos
	var class byte
	for s.pos < len(s.data) && nameBytes[s.data[s.pos]] != 0 {
		class |= nameBytes[s.data[s.pos]]
		s.pos++
	}
	// A name run to the end of the input is cut off.
	if s.pos >= len(s.data) {
		return false, s.errEOF()
	}
	if s.pos == start {
		return false, nil
	}
	s.name = span{start, s.pos}
	name := s.bytes(s.name)
	// An ASCII name must start with a letter, '_' or ':'. A name holding
	// any other byte is judged by encoding/xml itself, as the target of a
	// processing instruction, so its Unicode tables decide.
	if c := name[0]; class == nameASCII && !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':') ||
		class != nameASCII && !judgeXMLName(name) {
		return false, s.syntaxError("invalid XML name: " + string(name))
	}
	return true, nil
}

// readName skips the run of name bytes at s.pos, as an entity name is
// read: ok is false, with no error, when the run is empty, and a run to
// the end of the input is cut off.
func (s *xmlScanner) readName() (ok bool, err error) {
	start := s.pos
	for s.pos < len(s.data) && nameBytes[s.data[s.pos]] != 0 {
		s.pos++
	}
	if s.pos >= len(s.data) {
		return false, s.errEOF()
	}
	return s.pos > start, nil
}

// nameBytes classifies the bytes a name run is made of: ASCII name bytes
// (nameASCII) and the bytes of multi-byte characters (nameOther); any
// other byte ends the run. plainText marks the printable ASCII bytes that
// text copies without a second look: all but '<', '>', '&', ']' and the
// quotes.
var (
	nameBytes [256]byte
	plainText [256]bool
)

const (
	nameASCII byte = 1 << iota
	nameOther
)

func init() {
	for c := 0; c < 256; c++ {
		switch {
		case c >= utf8.RuneSelf:
			nameBytes[c] = nameOther
		case 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-':
			nameBytes[c] = nameASCII
		}
		plainText[c] = 0x20 <= c && c < utf8.RuneSelf && !strings.ContainsRune(`<>&]"'`, rune(c))
	}
}

func judgeXMLName(name []byte) bool {
	pi := append(append([]byte("<?"), name...), "?>"...)
	_, err := xml.NewDecoder(bytes.NewReader(pi)).RawToken()
	return err == nil
}
