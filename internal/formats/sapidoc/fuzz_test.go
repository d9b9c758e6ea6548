package sapidoc

import "testing"

// The fuzz targets assert the decoder robustness contract: arbitrary
// bytes must never panic a decoder, and any IDoc a decoder accepts must
// survive re-encoding and re-decoding. Every input is also checked against
// the reference codec (reference_test.go): the same error text, the same
// decoded document and the same re-encoded bytes. Seed corpora are the
// golden sample IDocs plus structural mutations of them.

// idocSeeds returns seed inputs derived from the golden documents.
func idocSeeds(encode func() ([]byte, error)) [][]byte {
	wire, err := encode()
	if err != nil {
		panic(err)
	}
	return [][]byte{
		wire,
		[]byte(""),
		[]byte("EDI_DC40:"),
		wire[:len(wire)/2],
		append(append([]byte{}, wire...), "\nE1GARBAGE|x"...),
	}
}

func FuzzDecodeOrders(f *testing.F) {
	for _, s := range idocSeeds(func() ([]byte, error) { return sampleOrders().Encode() }) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ordersPair.checkDecode(t, data)
		doc, err := DecodeOrders(data)
		if err != nil {
			return
		}
		wire, err := doc.Encode()
		if err != nil {
			return
		}
		if _, err := DecodeOrders(wire); err != nil {
			t.Fatalf("re-decode of re-encoded IDoc failed: %v\nwire:\n%s", err, wire)
		}
	})
}

func FuzzDecodeOrdrsp(f *testing.F) {
	for _, s := range idocSeeds(func() ([]byte, error) { return sampleOrdrsp().Encode() }) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ordrspPair.checkDecode(t, data)
		doc, err := DecodeOrdrsp(data)
		if err != nil {
			return
		}
		wire, err := doc.Encode()
		if err != nil {
			return
		}
		if _, err := DecodeOrdrsp(wire); err != nil {
			t.Fatalf("re-decode of re-encoded IDoc failed: %v\nwire:\n%s", err, wire)
		}
	})
}

func FuzzDecodeInvoic(f *testing.F) {
	for _, s := range idocSeeds(func() ([]byte, error) { return sampleInvoic().Encode() }) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		invoicPair.checkDecode(t, data)
		doc, err := DecodeInvoic(data)
		if err != nil {
			return
		}
		wire, err := doc.Encode()
		if err != nil {
			return
		}
		if _, err := DecodeInvoic(wire); err != nil {
			t.Fatalf("re-decode of re-encoded IDoc failed: %v\nwire:\n%s", err, wire)
		}
	})
}
