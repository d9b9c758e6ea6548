package formats_test

// Decoder robustness: every format decoder must return an error (or a
// valid document) — never panic — on arbitrarily mutated wire bytes. The
// paper's Section 1 lists "incorrect message content" among the error
// cases an integration must survive; these tests subject every decoder to
// byte-level corruption of valid documents and to random garbage.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/formats/edi"
	"repro/internal/formats/oagis"
	"repro/internal/formats/oracleoif"
	"repro/internal/formats/rosettanet"
	"repro/internal/formats/sapidoc"
	"repro/internal/transform"
)

// codecsUnderTest enumerates every (codec, valid wire) pair.
func codecsUnderTest(t *testing.T) map[string]struct {
	codec formats.Codec
	wire  []byte
} {
	t.Helper()
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	buyer := doc.Party{ID: "TP1", Name: "Acme", DUNS: "111111111"}
	seller := doc.Party{ID: "HUB", Name: "Widget", DUNS: "999999999"}
	g := doc.NewGenerator(1)
	po := g.PO(buyer, seller)
	poa := doc.AckFor(po, "POA-1")
	inv, err := doc.InvoiceFor(po, poa, "INV-1")
	if err != nil {
		t.Fatal(err)
	}
	fa := &doc.FunctionalAck{ID: "997-1", RefControl: 7, RefGroupID: "PO", Accepted: true}
	_ = fa

	out := map[string]struct {
		codec formats.Codec
		wire  []byte
	}{}
	add := func(name string, codec formats.Codec, dt doc.DocType, document any) {
		t.Helper()
		native, err := reg.FromNormalized(codec.Format(), dt, document)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f997, ok := native.(*edi.FA997); ok {
			f997.SenderID, f997.ReceiverID = "HUB", "TP1"
		}
		wire, err := codec.Encode(native)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = struct {
			codec formats.Codec
			wire  []byte
		}{codec, wire}
	}
	add("edi-po", edi.POCodec{}, doc.TypePO, po)
	add("edi-poa", edi.POACodec{}, doc.TypePOA, poa)
	add("edi-inv", edi.INVCodec{}, doc.TypeINV, inv)
	add("edi-fa", edi.FACodec{}, doc.TypeFA, fa)
	add("rn-po", rosettanet.POCodec{}, doc.TypePO, po)
	add("rn-poa", rosettanet.POACodec{}, doc.TypePOA, poa)
	add("rn-inv", rosettanet.INVCodec{}, doc.TypeINV, inv)
	add("oagis-po", oagis.POCodec{}, doc.TypePO, po)
	add("oagis-poa", oagis.POACodec{}, doc.TypePOA, poa)
	add("oagis-inv", oagis.INVCodec{}, doc.TypeINV, inv)
	add("sap-po", sapidoc.POCodec{}, doc.TypePO, po)
	add("sap-poa", sapidoc.POACodec{}, doc.TypePOA, poa)
	add("sap-inv", sapidoc.INVCodec{}, doc.TypeINV, inv)
	add("ora-po", oracleoif.POCodec{}, doc.TypePO, po)
	add("ora-poa", oracleoif.POACodec{}, doc.TypePOA, poa)
	add("ora-inv", oracleoif.INVCodec{}, doc.TypeINV, inv)
	return out
}

// TestDecodersSurviveMutation flips, deletes and inserts random bytes in
// valid wires; decoders must never panic. The seed changes from run to run
// and a failure names it, so the input can be replayed.
func TestDecodersSurviveMutation(t *testing.T) {
	cases := codecsUnderTest(t)
	seed := time.Now().UnixNano()%1000 + 1
	r := rand.New(rand.NewSource(seed))
	for name, c := range cases {
		c := c
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 300; i++ {
				wire := append([]byte(nil), c.wire...)
				switch r.Intn(3) {
				case 0: // flip a byte
					if len(wire) > 0 {
						wire[r.Intn(len(wire))] ^= byte(1 + r.Intn(255))
					}
				case 1: // delete a span
					if len(wire) > 2 {
						a := r.Intn(len(wire) - 1)
						b := a + 1 + r.Intn(len(wire)-a-1)
						wire = append(wire[:a], wire[b:]...)
					}
				case 2: // insert junk
					pos := r.Intn(len(wire) + 1)
					junk := []byte{byte(r.Intn(256)), byte(r.Intn(256))}
					wire = append(wire[:pos], append(junk, wire[pos:]...)...)
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("decoder panicked on mutated input (seed %d): %v\ninput: %q", seed, p, wire)
						}
					}()
					_, _ = c.codec.Decode(wire)
				}()
			}
		})
	}
}

// TestDecodersSurviveGarbage feeds pure random bytes.
func TestDecodersSurviveGarbage(t *testing.T) {
	cases := codecsUnderTest(t)
	r := rand.New(rand.NewSource(77))
	for name, c := range cases {
		c := c
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 100; i++ {
				wire := make([]byte, r.Intn(512))
				r.Read(wire)
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("decoder panicked on garbage: %v", p)
						}
					}()
					if _, err := c.codec.Decode(wire); err == nil && len(wire) > 0 {
						// Random bytes decoding successfully would be alarming
						// for the structured formats; tolerate but log.
						t.Logf("garbage of %d bytes decoded successfully", len(wire))
					}
				}()
			}
		})
	}
}
