package expr

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// SyntaxError describes a lexical or parse error with its byte offset into
// the source expression.
type SyntaxError struct {
	Pos int
	Msg string
	Src string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("expr: syntax error at offset %d in %q: %s", e.Pos, e.Src, e.Msg)
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...), Src: l.src}
}

func (l *lexer) peekRune() (rune, int) {
	if l.pos >= len(l.src) {
		return 0, 0
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		r, w := l.peekRune()
		if !unicode.IsSpace(r) {
			return
		}
		l.pos += w
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// next returns the next token in the input.
func (l *lexer) next() (Token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Pos: start}, nil
	}
	r, w := l.peekRune()

	switch {
	case isIdentStart(r):
		for l.pos < len(l.src) {
			r, w := l.peekRune()
			if !isIdentPart(r) {
				break
			}
			l.pos += w
		}
		text := l.src[start:l.pos]
		switch strings.ToLower(text) {
		case "and":
			return Token{Kind: AND, Text: text, Pos: start}, nil
		case "or":
			return Token{Kind: OR, Text: text, Pos: start}, nil
		case "not":
			return Token{Kind: NOT, Text: text, Pos: start}, nil
		case "true", "false":
			return Token{Kind: BOOL, Text: strings.ToLower(text), Pos: start}, nil
		}
		if strings.HasPrefix(text, ".") || strings.HasSuffix(text, ".") || strings.Contains(text, "..") {
			return Token{}, l.errf(start, "malformed reference %q", text)
		}
		return Token{Kind: IDENT, Text: text, Pos: start}, nil

	case unicode.IsDigit(r):
		seenDot := false
		for l.pos < len(l.src) {
			r, w := l.peekRune()
			if r == '.' {
				if seenDot {
					break
				}
				// A dot is part of the number only if followed by a digit;
				// otherwise it would be a malformed trailing dot.
				if l.pos+w < len(l.src) {
					nr, _ := utf8.DecodeRuneInString(l.src[l.pos+w:])
					if !unicode.IsDigit(nr) {
						break
					}
				} else {
					break
				}
				seenDot = true
				l.pos += w
				continue
			}
			if !unicode.IsDigit(r) {
				break
			}
			l.pos += w
		}
		return Token{Kind: NUMBER, Text: l.src[start:l.pos], Pos: start}, nil

	case r == '"' || r == '\'':
		quote := r
		l.pos += w
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.errf(start, "unterminated string")
			}
			c, cw := l.peekRune()
			l.pos += cw
			if c == quote {
				return Token{Kind: STRING, Text: sb.String(), Pos: start}, nil
			}
			if c == '\\' {
				if l.pos >= len(l.src) {
					return Token{}, l.errf(start, "unterminated escape in string")
				}
				e, ew := l.peekRune()
				l.pos += ew
				switch e {
				case 'n':
					sb.WriteRune('\n')
				case 't':
					sb.WriteRune('\t')
				case '\\', '"', '\'':
					sb.WriteRune(e)
				default:
					return Token{}, l.errf(start, "unknown escape \\%c", e)
				}
				continue
			}
			sb.WriteRune(c)
		}
	}

	two := func(k Kind, text string) (Token, error) {
		l.pos += 2
		return Token{Kind: k, Text: text, Pos: start}, nil
	}
	one := func(k Kind, text string) (Token, error) {
		l.pos += w
		return Token{Kind: k, Text: text, Pos: start}, nil
	}
	rest := l.src[l.pos:]
	switch {
	case strings.HasPrefix(rest, "=="):
		return two(EQ, "==")
	case strings.HasPrefix(rest, "!="):
		return two(NEQ, "!=")
	case strings.HasPrefix(rest, "<="):
		return two(LEQ, "<=")
	case strings.HasPrefix(rest, ">="):
		return two(GEQ, ">=")
	case strings.HasPrefix(rest, "&&"):
		return two(AND, "&&")
	case strings.HasPrefix(rest, "||"):
		return two(OR, "||")
	}
	switch r {
	case '<':
		return one(LT, "<")
	case '>':
		return one(GT, ">")
	case '!':
		return one(NOT, "!")
	case '(':
		return one(LPAREN, "(")
	case ')':
		return one(RPAREN, ")")
	case ',':
		return one(COMMA, ",")
	case '+':
		return one(ADD, "+")
	case '-':
		return one(SUB, "-")
	case '*':
		return one(MUL, "*")
	case '/':
		return one(QUO, "/")
	case '%':
		return one(REM, "%")
	case '=':
		// Accept single '=' as equality for tolerance with paper-style
		// pseudo code ("target == SAP" is also written "target = SAP").
		return one(EQ, "=")
	}
	return Token{}, l.errf(start, "unexpected character %q", r)
}

// lex tokenizes the whole source, returning tokens including the final EOF.
func lex(src string) ([]Token, error) {
	l := &lexer{src: src}
	// Room for one comparison ("document.amount >= 1000") and its EOF
	// without regrowing: most business rules are one.
	toks := make([]Token, 0, 4)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
