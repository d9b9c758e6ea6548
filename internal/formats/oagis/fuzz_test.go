package oagis

import "testing"

// The fuzz targets assert the decoder robustness contract: arbitrary
// bytes must never panic a decoder, and any BOD a decoder accepts must
// survive re-encoding and re-decoding. Every input is also checked against
// the encoding/xml reference (reference_test.go): the same verdict, the
// same decoded document and the same re-encoded bytes. Seed corpora are the
// golden sample BODs plus structural mutations of them.

// bodSeeds returns seed inputs derived from the golden documents.
func bodSeeds(encode func() ([]byte, error)) [][]byte {
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

func FuzzDecodeProcessPO(f *testing.F) {
	for _, s := range bodSeeds(func() ([]byte, error) { return samplePO().Encode() }) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		processPOPair.CheckDecode(t, data)
		doc, err := DecodeProcessPO(data)
		if err != nil {
			return
		}
		wire, err := doc.Encode()
		if err != nil {
			return
		}
		if _, err := DecodeProcessPO(wire); err != nil {
			t.Fatalf("re-decode of re-encoded BOD failed: %v\nwire:\n%s", err, wire)
		}
	})
}

func FuzzDecodeAcknowledgePO(f *testing.F) {
	for _, s := range bodSeeds(func() ([]byte, error) { return samplePOA().Encode() }) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		acknowledgePOPair.CheckDecode(t, data)
		doc, err := DecodeAcknowledgePO(data)
		if err != nil {
			return
		}
		wire, err := doc.Encode()
		if err != nil {
			return
		}
		if _, err := DecodeAcknowledgePO(wire); err != nil {
			t.Fatalf("re-decode of re-encoded BOD failed: %v\nwire:\n%s", err, wire)
		}
	})
}

func FuzzDecodeProcessInvoice(f *testing.F) {
	for _, s := range bodSeeds(func() ([]byte, error) { return sampleInvoiceBOD().Encode() }) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		processInvoicePair.CheckDecode(t, data)
		doc, err := DecodeProcessInvoice(data)
		if err != nil {
			return
		}
		wire, err := doc.Encode()
		if err != nil {
			return
		}
		if _, err := DecodeProcessInvoice(wire); err != nil {
			t.Fatalf("re-decode of re-encoded BOD failed: %v\nwire:\n%s", err, wire)
		}
	})
}
