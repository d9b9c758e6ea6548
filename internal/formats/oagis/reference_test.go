package oagis

// The reference codec: the encoding/xml implementation the hand-written
// scanner and printer replaced. The differential tests
// (differential_test.go) hold the production codec to it: the same verdict
// on every input (a syntax error's text may differ; the root-element and
// Validate errors must not), the same document, and the same bytes.

import (
	"bytes"
	"encoding/xml"
	"fmt"

	"repro/internal/formats"
)

func marshalXML(v any) ([]byte, error) {
	buf := formats.GetBuffer()
	defer formats.PutBuffer(buf)
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(buf)
	enc.Indent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("oagis: encode: %w", err)
	}
	buf.WriteString("\n")
	return formats.CopyBytes(buf), nil
}

// unmarshalStrict decodes XML and verifies the expected root element, since
// encoding/xml happily decodes a request into a confirmation struct
// otherwise.
func unmarshalStrict(data []byte, v any, wantRoot string) error {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("oagis: decode: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Local != wantRoot {
				return fmt.Errorf("oagis: decode: root element %q, want %q", se.Name.Local, wantRoot)
			}
			if err := dec.DecodeElement(v, &se); err != nil {
				return fmt.Errorf("oagis: decode: %w", err)
			}
			return nil
		}
	}
}

// validator is every document type of the package.
type validator interface{ Validate() error }

// refDecode is the reference decoder of document type T with root element
// root: unmarshalStrict, then Validate.
func refDecode[T any, P interface {
	*T
	validator
}](root string) func([]byte) (*T, error) {
	return func(data []byte) (*T, error) {
		v := P(new(T))
		if err := unmarshalStrict(data, v, root); err != nil {
			return nil, err
		}
		if err := v.Validate(); err != nil {
			return nil, err
		}
		return v, nil
	}
}

// refEncode is the reference encoder: Validate, then marshalXML.
func refEncode[T any, P interface {
	*T
	validator
}](v *T) ([]byte, error) {
	if err := P(v).Validate(); err != nil {
		return nil, err
	}
	return marshalXML(v)
}
