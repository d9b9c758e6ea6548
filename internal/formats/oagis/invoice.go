package oagis

import (
	"encoding/xml"
	"fmt"
	"strings"

	"repro/internal/formats"
)

// InvoiceLine is one billed line in the invoice BOD noun.
type InvoiceLine struct {
	LineNumber  int     `xml:"LineNumber"`
	ItemID      string  `xml:"ItemID"`
	Description string  `xml:"Description,omitempty"`
	Quantity    int     `xml:"Quantity"`
	UnitPrice   float64 `xml:"UnitPrice>Amount"`
	Currency    string  `xml:"UnitPrice>Currency"`
}

var invoiceLineXML = formats.NewXMLStruct(
	formats.XMLInt("LineNumber", func(l *InvoiceLine) *int { return &l.LineNumber }),
	formats.XMLString("ItemID", func(l *InvoiceLine) *string { return &l.ItemID }),
	formats.XMLString("Description,omitempty", func(l *InvoiceLine) *string { return &l.Description }),
	formats.XMLInt("Quantity", func(l *InvoiceLine) *int { return &l.Quantity }),
	formats.XMLFloat("UnitPrice>Amount", func(l *InvoiceLine) *float64 { return &l.UnitPrice }),
	formats.XMLString("UnitPrice>Currency", func(l *InvoiceLine) *string { return &l.Currency }),
)

// InvoiceNoun is the Invoice noun of ProcessInvoice.
type InvoiceNoun struct {
	DocumentID    string        `xml:"Header>DocumentID"`
	OriginalPOID  string        `xml:"Header>PurchaseOrderReference>DocumentID"`
	DocumentDate  string        `xml:"Header>DocumentDateTime"`
	PaymentDue    string        `xml:"Header>PaymentDueDateTime,omitempty"`
	Currency      string        `xml:"Header>Currency"`
	CustomerParty PartyOAGIS    `xml:"Header>CustomerParty"`
	SupplierParty PartyOAGIS    `xml:"Header>SupplierParty"`
	Note          string        `xml:"Header>Note,omitempty"`
	Lines         []InvoiceLine `xml:"Line"`
}

var invoiceNounXML = formats.NewXMLStruct(
	formats.XMLString("Header>DocumentID", func(n *InvoiceNoun) *string { return &n.DocumentID }),
	formats.XMLString("Header>PurchaseOrderReference>DocumentID", func(n *InvoiceNoun) *string { return &n.OriginalPOID }),
	formats.XMLString("Header>DocumentDateTime", func(n *InvoiceNoun) *string { return &n.DocumentDate }),
	formats.XMLString("Header>PaymentDueDateTime,omitempty", func(n *InvoiceNoun) *string { return &n.PaymentDue }),
	formats.XMLString("Header>Currency", func(n *InvoiceNoun) *string { return &n.Currency }),
	formats.XMLElem("Header>CustomerParty", partyXML, func(n *InvoiceNoun) *PartyOAGIS { return &n.CustomerParty }),
	formats.XMLElem("Header>SupplierParty", partyXML, func(n *InvoiceNoun) *PartyOAGIS { return &n.SupplierParty }),
	formats.XMLString("Header>Note,omitempty", func(n *InvoiceNoun) *string { return &n.Note }),
	formats.XMLList("Line", invoiceLineXML, func(n *InvoiceNoun) *[]InvoiceLine { return &n.Lines }),
)

// ProcessInvoice is the one-way invoice BOD (verb Process, noun Invoice).
type ProcessInvoice struct {
	XMLName         xml.Name        `xml:"ProcessInvoice"`
	ApplicationArea ApplicationArea `xml:"ApplicationArea"`
	Invoice         InvoiceNoun     `xml:"DataArea>Invoice"`
}

// processInvoiceXML is the BOD's codec: its field tables follow the struct
// tags above, field for field.
var processInvoiceXML = formats.NewXMLDoc("oagis", "ProcessInvoice",
	func(b *ProcessInvoice) *xml.Name { return &b.XMLName },
	formats.XMLElem("ApplicationArea", applicationAreaXML, func(b *ProcessInvoice) *ApplicationArea { return &b.ApplicationArea }),
	formats.XMLElem("DataArea>Invoice", invoiceNounXML, func(b *ProcessInvoice) *InvoiceNoun { return &b.Invoice }),
)

// Validate reports structural problems with the BOD.
func (b *ProcessInvoice) Validate() error {
	var problems []string
	if b.ApplicationArea.BODID == "" {
		problems = append(problems, "missing BODID")
	}
	if b.Invoice.DocumentID == "" {
		problems = append(problems, "missing DocumentID")
	}
	if b.Invoice.OriginalPOID == "" {
		problems = append(problems, "missing PurchaseOrderReference")
	}
	if len(b.Invoice.Lines) == 0 {
		problems = append(problems, "no Line elements")
	}
	for i, l := range b.Invoice.Lines {
		if l.LineNumber <= 0 {
			problems = append(problems, fmt.Sprintf("line %d: non-positive LineNumber", i))
		}
		if l.Quantity <= 0 {
			problems = append(problems, fmt.Sprintf("line %d: non-positive Quantity", i))
		}
		if l.ItemID == "" {
			problems = append(problems, fmt.Sprintf("line %d: missing ItemID", i))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("oagis: invalid ProcessInvoice %q: %s", b.Invoice.DocumentID, strings.Join(problems, "; "))
	}
	return nil
}

// Encode renders the BOD as an XML document.
func (b *ProcessInvoice) Encode() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return processInvoiceXML.Encode(b), nil
}

// DecodeProcessInvoice parses a ProcessInvoice BOD.
func DecodeProcessInvoice(data []byte) (*ProcessInvoice, error) {
	b, err := processInvoiceXML.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}
