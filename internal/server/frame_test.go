package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// X12 documents for the wire submits of the golden frames; only their
// bytes matter here.
const (
	golden850 = "ISA*00*          *00*          *ZZ*TP1            *ZZ*HUB            *010903*0930*U*00401*000000001*0*P*>~\n" +
		"GS*PO*TP1*HUB*20010903*0930*1*X*004010~\nST*850*0001~\nBEG*00*SA*PO-TP1-000001**20010903~\nCUR*BY*USD~\n" +
		"N1*BY*Trading Partner 1*1*111111111~\nPO1*1*5*EA*12.5*PE*VP*SKU-001~\nPID*F****Widget & <Gadget>~\nCTT*1~\n" +
		"SE*8*0001~\nGE*1*1~\nIEA*1*000000001~\n"
	golden855 = "ISA*00*          *00*          *ZZ*HUB            *ZZ*TP1            *010903*0930*U*00401*000000002*0*P*>~\n" +
		"GS*PR*HUB*TP1*20010903*0930*2*X*004010~\nST*855*0001~\nBAK*00*AD*PO-TP1-000001*20010903****POA-000001~\n" +
		"PO1*1~\nACK*IA*5*EA~\nCTT*1~\nSE*6*0001~\nGE*1*2~\nIEA*1*000000002~\n"
)

// goldenFrames are the frames of testdata/frames.golden, in order: the
// frames a daemon and its clients exchange, with bodies encoded as the
// client and the daemon encode them, and the envelope cases whose bytes
// json.Marshal decides: an op that needs escapes, a raw body that is not
// compact or holds HTML, error detail, and empty and null bodies.
func goldenFrames(t testing.TB) []*Frame {
	t.Helper()
	body := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	po := json.RawMessage(`{"id":"PO-TP1-000001","buyer":{"id":"TP1","name":"Trading Partner 1"},` +
		`"lines":[{"line":1,"sku":"SKU-001","description":"Widget & <Gadget>","quantity":5,"unit_price":12.5}]}`)
	wirePO := SubmitRequest{Kind: "wire-po", Protocol: "EDI-X12", Wire: []byte(golden850), PartnerID: "TP1"}
	exErr := EncodeError(&core.ExchangeError{
		ExchangeID: "ex-000003", Partner: "TP1", Stage: obs.StageApp, Port: "app.out", Attempt: 2,
		Err: fmt.Errorf("back end SAP: %w", core.ErrPartnerUnavailable),
	})
	return []*Frame{
		{V: ProtocolVersion, ID: 1, Op: OpHello, Body: json.RawMessage(`{}`)},
		{V: ProtocolVersion, ID: 1, Op: OpHello, Body: body(HelloResponse{Version: ProtocolVersion, Name: "b2bhub", Journal: true, Partners: []string{"TP1", "TP2", "TP3"}})},
		{V: ProtocolVersion, ID: 2, Op: OpSubmit, Body: body(SubmitRequest{Kind: "po", PO: po, High: true, Retry: &RetryOverride{MaxAttempts: 3, BaseBackoffMS: 25}, TimeoutMS: 5000})},
		{V: ProtocolVersion, ID: 2, Op: OpSubmit, Body: body(SubmitResponse{ExchangeID: "ex-000002", Partner: "TP1", POA: json.RawMessage(`{"id":"POA-000001","po_id":"PO-TP1-000001"}`)})},
		{V: ProtocolVersion, ID: 3, Op: OpSubmit, Body: body(wirePO)},
		{V: ProtocolVersion, ID: 3, Op: OpSubmit, Body: body(SubmitResponse{ExchangeID: "ex-1000003", Partner: "TP1", Wire: []byte(golden855)})},
		{V: ProtocolVersion, ID: 7, Op: OpForward, Body: body(ForwardRequest{From: "n1", Hops: 1, Submit: wirePO})},
		{V: ProtocolVersion, ID: 3, Op: OpSubmit, Err: exErr},
		{V: ProtocolVersion, ID: 4, Err: protoError(CodeVersion, "server: protocol version 2 not supported (daemon speaks 1)")},
		{V: ProtocolVersion, ID: 5, Op: "sub<mit>&\u2028\u2029\x00\x1f\"\\\xff\xfe", Body: json.RawMessage(`{}`)},
		{V: ProtocolVersion, ID: 6, Op: OpStatus, Body: json.RawMessage(" {\n\t\"a\" : [ 1 , 2 ],\r\n \"b\" : \"<x> & \u2028\" } ")},
		{V: ProtocolVersion, ID: 8, Op: OpStatus},
		{V: ProtocolVersion, ID: 9, Op: OpStatus, Body: json.RawMessage{}},
		{V: ProtocolVersion, ID: 10, Op: OpStatus, Body: json.RawMessage(`null`)},
		{V: 0, ID: 0},
	}
}

// renderGolden renders frames as frames.golden holds them: one line per
// frame, its 4-byte length prefix in hex, a space, then its JSON payload,
// which json.Marshal never breaks across lines.
func renderGolden(t testing.TB, frames []*Frame) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, f := range frames {
		var b bytes.Buffer
		if err := WriteFrame(&b, f); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%x %s\n", b.Bytes()[:4], b.Bytes()[4:])
	}
	return out.Bytes()
}

// TestWriteFrameGolden holds WriteFrame to the bytes json.Marshal framed
// before frames were encoded in place: testdata/frames.golden was written
// by the WriteFrame that marshalled the Frame and copied the result behind
// its length. Every golden frame also reads back as json.Unmarshal reads
// its payload.
func TestWriteFrameGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	frames := goldenFrames(t)
	if got := renderGolden(t, frames); !bytes.Equal(got, want) {
		t.Fatalf("frames differ from testdata/frames.golden:\n got %s\nwant %s", got, want)
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(lines) != len(frames) {
		t.Fatalf("%d golden lines for %d frames", len(lines), len(frames))
	}
	for i, line := range lines {
		prefix, payload, _ := strings.Cut(line, " ")
		hdr, err := hex.DecodeString(prefix)
		if err != nil || len(hdr) != 4 || binary.BigEndian.Uint32(hdr) != uint32(len(payload)) {
			t.Fatalf("line %d: length prefix %q does not frame its %d-byte payload", i+1, prefix, len(payload))
		}
		checkReadFrame(t, []byte(payload))
	}
}

// TestEncodeOnceMatchesMarshal holds the frames the client and the daemon
// encode from a value, with no marshalled body in between, to WriteFrame's
// frames around json.Marshal of the same value.
func TestEncodeOnceMatchesMarshal(t *testing.T) {
	values := []any{
		nil,
		struct{}{},
		SubmitRequest{Kind: "wire-po", Protocol: "EDI-X12", Wire: []byte(golden850), PartnerID: "TP1"},
		&SubmitResponse{ExchangeID: "ex-000002", Partner: "TP1", POA: json.RawMessage(` { "id" : "<POA>" } `)},
		ForwardRequest{From: "n1", Hops: 1},
		json.RawMessage(" [1, \"a&b\"] "),
		"\u2028<\xff>",
		map[string]any{"b": 1.5, "a": []int{1, 2}},
	}
	for _, v := range values {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := WriteFrame(&want, &Frame{V: ProtocolVersion, ID: 12, Op: OpSubmit, Body: raw}); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := appendFrame(&got, ProtocolVersion, 12, OpSubmit, orNull(v), nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%T %v: encoded in place\n %q\nmarshalled first\n %q", v, v, got.Bytes(), want.Bytes())
		}
	}
	// A value Marshal refuses fails the same way, and leaves the buffer as
	// it was.
	var buf bytes.Buffer
	buf.WriteString("kept")
	if err := appendFrame(&buf, ProtocolVersion, 1, OpSubmit, make(chan int), nil); err == nil {
		t.Fatal("a channel body encoded")
	}
	if buf.String() != "kept" {
		t.Fatalf("failed encode left %q", buf.String())
	}
}

// checkReadFrame holds ReadFrame to its reference on one payload: ReadFrame
// and json.Unmarshal(payload, &Frame{}) both accept it and return
// deep-equal frames, or both reject it.
func checkReadFrame(t *testing.T, payload []byte) {
	t.Helper()
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = append(frame, payload...)
	got, err := ReadFrame(bytes.NewReader(frame), 0)
	want := &Frame{}
	werr := json.Unmarshal(payload, want)
	switch {
	case werr != nil && err == nil:
		t.Fatalf("ReadFrame accepted %q, which json.Unmarshal rejects: %v", payload, werr)
	case werr != nil && !strings.HasPrefix(err.Error(), "server: decode frame: "):
		t.Fatalf("ReadFrame rejected %q with %q, want the decode frame prefix", payload, err)
	case werr == nil && err != nil:
		t.Fatalf("ReadFrame rejected %q, which json.Unmarshal accepts: %v", payload, err)
	case werr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("ReadFrame(%q) = %+v, json.Unmarshal gives %+v", payload, got, want)
	}
}

// FuzzWriteFrame: for any frame, WriteFrame writes its 4-byte length and
// json.Marshal(f), or both fail and WriteFrame writes nothing. A request
// encoded in place, as Client.Call encodes one, gives WriteFrame's bytes
// around the marshalled request.
func FuzzWriteFrame(f *testing.F) {
	for _, fr := range goldenFrames(f) {
		code, msg := "", ""
		if fr.Err != nil {
			code, msg = fr.Err.Code, fr.Err.Message
		}
		f.Add(fr.V, fr.ID, fr.Op, []byte(fr.Body), code, msg)
	}
	for _, op := range []string{"<", ">", "&", `"`, `\`, "\x1f", "\x7f", "é", "\u2028", "\xff", " ~"} {
		f.Add(1, uint64(5), "op"+op, []byte(`{}`), "", "")
	}
	f.Add(-1, uint64(1<<63), "op", []byte(`{"a":`), "", "")
	f.Add(2, uint64(0), "", []byte(`"\ud800"`), "internal", "bad \xff")
	f.Fuzz(func(t *testing.T, v int, id uint64, op string, body []byte, code, msg string) {
		fr := &Frame{V: v, ID: id, Op: op, Body: body}
		if code != "" {
			fr.Err = &WireError{Code: code, Message: msg, Exchange: &ExchangeErrDetail{ExchangeID: op, Cause: msg}}
		}
		want, werr := json.Marshal(fr)
		var got bytes.Buffer
		err := WriteFrame(&got, fr)
		switch {
		case werr != nil && err == nil:
			t.Fatalf("WriteFrame(%+v) succeeded, json.Marshal fails: %v", fr, werr)
		case werr != nil && got.Len() > 0:
			t.Fatalf("WriteFrame(%+v) failed but wrote %q", fr, got.Bytes())
		case werr == nil && err != nil:
			t.Fatalf("WriteFrame(%+v) failed, json.Marshal succeeds: %v", fr, err)
		case werr == nil && !bytes.Equal(got.Bytes(), append(binary.BigEndian.AppendUint32(nil, uint32(len(want))), want...)):
			t.Fatalf("WriteFrame(%+v) = %q, want the length and %q", fr, got.Bytes(), want)
		}

		in := json.RawMessage(body)
		raw, rerr := json.Marshal(in)
		var call bytes.Buffer
		cerr := appendFrame(&call, v, id, op, orNull(in), nil)
		if (rerr != nil) != (cerr != nil) {
			t.Fatalf("request %q: encoded in place err %v, json.Marshal err %v", body, cerr, rerr)
		}
		if rerr == nil {
			var ref bytes.Buffer
			if err := WriteFrame(&ref, &Frame{V: v, ID: id, Op: op, Body: raw}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(call.Bytes(), ref.Bytes()) {
				t.Fatalf("request %q encoded in place as %q, marshalled first as %q", body, call.Bytes(), ref.Bytes())
			}
		}
	})
}

// FuzzReadFrame: json.Unmarshal decides. On every payload ReadFrame and
// json.Unmarshal(payload, &Frame{}) both accept and return deep-equal
// frames, or both reject.
func FuzzReadFrame(f *testing.F) {
	for _, line := range strings.Split(string(renderGolden(f, goldenFrames(f))), "\n") {
		if _, payload, ok := strings.Cut(line, " "); ok {
			f.Add([]byte(payload))
		}
	}
	for _, s := range []string{
		``, `null`, `[]`, `{}`, `{"v":"1"}`, `{"v":1e3}`, `{"id":-1}`,
		`{"V":1,"Id":2,"OP":"x","BODY":null,"ERR":null}`,
		`{"body":null}`, `{"body":{"a":1},"body":[1]}`, `{"body":{"a":1},"BODY":2}`,
		`{"err":{"code":1}}`, `{"err":{"meſſage":"x","exchange":{"attempt":"2"}}}`,
		`{"body":"<"} `, `{"body":{"a":1}`, `{"body":01}`, `{"frame":{"v":2},"hdr":[1,2,3,4]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkReadFrame(t, payload)
	})
}
