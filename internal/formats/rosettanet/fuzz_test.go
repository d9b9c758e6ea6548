package rosettanet

import "testing"

// The fuzz targets assert the decoder robustness contract: arbitrary
// bytes must never panic a decoder, and any document a decoder accepts
// must survive re-encoding and re-decoding. Every input is also checked
// against the encoding/xml reference (reference_test.go): the same verdict,
// the same decoded document and the same re-encoded bytes. Seed corpora
// are the golden sample documents plus structural mutations of them.

// pipSeeds returns seed inputs derived from a golden document.
func pipSeeds(encode func() ([]byte, error)) [][]byte {
	wire, err := encode()
	if err != nil {
		panic(err)
	}
	return [][]byte{
		wire,
		[]byte(""),
		[]byte("<?xml version=\"1.0\"?>"),
		wire[:len(wire)/2],
		append(append([]byte{}, wire...), "<EXTRA/>"...),
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, s := range pipSeeds(func() ([]byte, error) { return sampleRequest().Encode() }) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requestPair.CheckDecode(t, data)
		doc, err := DecodeRequest(data)
		if err != nil {
			return
		}
		wire, err := doc.Encode()
		if err != nil {
			return
		}
		if _, err := DecodeRequest(wire); err != nil {
			t.Fatalf("re-decode of re-encoded request failed: %v\nwire:\n%s", err, wire)
		}
	})
}

func FuzzDecodeConfirmation(f *testing.F) {
	for _, s := range pipSeeds(func() ([]byte, error) { return sampleConfirmation().Encode() }) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		confirmationPair.CheckDecode(t, data)
		doc, err := DecodeConfirmation(data)
		if err != nil {
			return
		}
		wire, err := doc.Encode()
		if err != nil {
			return
		}
		if _, err := DecodeConfirmation(wire); err != nil {
			t.Fatalf("re-decode of re-encoded confirmation failed: %v\nwire:\n%s", err, wire)
		}
	})
}

func FuzzDecodeInvoiceNotification(f *testing.F) {
	for _, s := range pipSeeds(func() ([]byte, error) { return sampleNotification().Encode() }) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		notificationPair.CheckDecode(t, data)
		doc, err := DecodeInvoiceNotification(data)
		if err != nil {
			return
		}
		wire, err := doc.Encode()
		if err != nil {
			return
		}
		if _, err := DecodeInvoiceNotification(wire); err != nil {
			t.Fatalf("re-decode of re-encoded notification failed: %v\nwire:\n%s", err, wire)
		}
	})
}
