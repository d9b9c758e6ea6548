package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/formats"
)

// ErrFrameTooLarge is returned for frames exceeding the reader's cap, and
// for frames the writer refuses because their payload would exceed
// MaxFrame.
var ErrFrameTooLarge = errors.New("server: frame exceeds size cap")

// nullBody is what json.Marshal writes for a nil value; appendFrame
// leaves a nil body out instead.
var nullBody any = json.RawMessage("null")

// orNull returns v, or the JSON null json.Marshal(nil) gives.
func orNull(v any) any {
	if v == nil {
		return nullBody
	}
	return v
}

// appendFrame appends one frame to buf as one wire message: a 4-byte
// big-endian payload length, then the payload json.Marshal writes for a
// Frame with these fields and a body whose encoding is body's. A request
// or response value is encoded straight into its frame, not marshalled on
// its own first and compacted again inside the frame. A nil body is left
// out, as is an empty op or a nil werr. The bytes are Marshal's: the
// fields go in Frame's order under its keys, the numbers are written as
// encoding/json writes them, an op of plain ASCII is quoted as it is, and
// everything else goes through a json.Encoder, whose options are
// Marshal's (a body that Marshal compacted and HTML-escaped already comes
// through RawMessage's compaction unchanged). A payload over MaxFrame is
// refused with ErrFrameTooLarge. On error buf is left as it was.
func appendFrame(buf *bytes.Buffer, v int, id uint64, op string, body any, werr *WireError) error {
	start := buf.Len()
	enc := json.NewEncoder(buf)
	fail := func(err error) error {
		buf.Truncate(start)
		return fmt.Errorf("server: marshal frame: %w", err)
	}
	buf.Write([]byte{0, 0, 0, 0}) // the length, filled in below
	buf.WriteString(`{"v":`)
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(v), 10))
	buf.WriteString(`,"id":`)
	buf.Write(strconv.AppendUint(buf.AvailableBuffer(), id, 10))
	if op != "" {
		buf.WriteString(`,"op":`)
		if plainString(op) {
			buf.WriteByte('"')
			buf.WriteString(op)
			buf.WriteByte('"')
		} else if err := encodeValue(buf, enc, op); err != nil {
			return fail(err)
		}
	}
	if body != nil {
		buf.WriteString(`,"body":`)
		if err := encodeValue(buf, enc, body); err != nil {
			return fail(err)
		}
	}
	if werr != nil {
		buf.WriteString(`,"err":`)
		if err := encodeValue(buf, enc, werr); err != nil {
			return fail(err)
		}
	}
	buf.WriteByte('}')
	n := buf.Len() - start - 4
	if n > MaxFrame {
		buf.Truncate(start)
		return fmt.Errorf("%w: %d bytes (cap %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf.Bytes()[start:], uint32(n))
	return nil
}

// encodeValue appends v's JSON to buf through enc, which writes to buf,
// without the newline Encode ends each value with.
func encodeValue(buf *bytes.Buffer, enc *json.Encoder, v any) error {
	if err := enc.Encode(v); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1)
	return nil
}

// plainString reports whether json.Marshal writes s as its own bytes in
// quotes: printable ASCII that needs no escape, HTML's included.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// WriteFrame writes f as one length-prefixed wire message: a 4-byte
// big-endian payload length followed by json.Marshal(f). The single Write
// keeps the frame atomic for concurrent writers serialized by the caller's
// mutex. A payload over MaxFrame is refused with ErrFrameTooLarge and
// nothing is written.
func WriteFrame(w io.Writer, f *Frame) error {
	var body any
	if len(f.Body) > 0 {
		body = &f.Body
	}
	buf := formats.GetBuffer()
	defer formats.PutBuffer(buf)
	if err := appendFrame(buf, f.V, f.ID, f.Op, body, f.Err); err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("server: write frame: %w", err)
	}
	return nil
}

// inFrame is what ReadFrame decodes a payload into: Frame's fields, order
// and tags, with a body that keeps the slice json.Unmarshal hands it, so
// keys match exactly as they match Frame's. It also holds the frame's
// length prefix and the Frame ReadFrame returns, so that one allocation
// serves all three.
type inFrame struct {
	V    int           `json:"v"`
	ID   uint64        `json:"id"`
	Op   string        `json:"op,omitempty"`
	Body payloadWindow `json:"body,omitempty"`
	Err  *WireError    `json:"err,omitempty"`

	hdr   [4]byte
	frame Frame
}

// payloadWindow is a frame body read in place.
type payloadWindow []byte

// UnmarshalJSON keeps data, a window of the payload json.Unmarshal is
// decoding, rather than copying it as json.RawMessage does. That is safe
// here because ReadFrame allocates each frame's payload for that frame
// alone and never reuses it.
func (p *payloadWindow) UnmarshalJSON(data []byte) error {
	*p = data
	return nil
}

// ReadFrame reads one length-prefixed frame. max caps the payload length
// (<=0 means MaxFrame); oversized frames return ErrFrameTooLarge without
// consuming the payload, so the caller must drop the connection. The
// frame's Body is a window of its payload, not a copy.
func ReadFrame(r io.Reader, max int) (*Frame, error) {
	if max <= 0 {
		max = MaxFrame
	}
	in := &inFrame{}
	if _, err := io.ReadFull(r, in.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(in.hdr[:])
	if n > uint32(max) {
		return nil, fmt.Errorf("%w: %d bytes (cap %d)", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("server: short frame: %w", err)
	}
	if err := json.Unmarshal(payload, in); err != nil {
		return nil, fmt.Errorf("server: decode frame: %w", err)
	}
	in.frame = Frame{V: in.V, ID: in.ID, Op: in.Op, Body: json.RawMessage(in.Body), Err: in.Err}
	return &in.frame, nil
}
