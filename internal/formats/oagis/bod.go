// Package oagis implements a structurally faithful subset of the OAGIS
// business object documents (BODs) for the paper's running example: the
// ProcessPurchaseOrder BOD carrying a purchase order and the
// AcknowledgePurchaseOrder BOD carrying the acknowledgment.
//
// This is the "OAGIS" B2B protocol of the paper (reference [36],
// www.openapplications.org) — the third protocol added in Figure 10/15 to
// demonstrate change impact. The BOD shape (ApplicationArea with Sender and
// CreationDateTime, DataArea with verb and noun) follows the OAGIS
// convention; the noun content is reduced to the fields the round trip
// needs.
package oagis

import (
	"encoding/xml"
	"fmt"
	"strings"
	"time"

	"repro/internal/formats"
)

// ApplicationArea carries BOD routing and audit metadata.
type ApplicationArea struct {
	// SenderID is the logical identifier of the sending system — the
	// trading partner ID in this framework.
	SenderID string `xml:"Sender>LogicalID"`
	// ReceiverID is the intended receiver's logical identifier.
	ReceiverID string `xml:"Receiver>LogicalID"`
	// CreationDateTime is an ISO 8601 timestamp.
	CreationDateTime string `xml:"CreationDateTime"`
	// BODID uniquely identifies this BOD instance.
	BODID string `xml:"BODID"`
}

var applicationAreaXML = formats.NewXMLStruct(
	formats.XMLString("Sender>LogicalID", func(a *ApplicationArea) *string { return &a.SenderID }),
	formats.XMLString("Receiver>LogicalID", func(a *ApplicationArea) *string { return &a.ReceiverID }),
	formats.XMLString("CreationDateTime", func(a *ApplicationArea) *string { return &a.CreationDateTime }),
	formats.XMLString("BODID", func(a *ApplicationArea) *string { return &a.BODID }),
)

// oagisTimeLayout is ISO 8601 with seconds, UTC.
const oagisTimeLayout = "2006-01-02T15:04:05Z"

// FormatTime renders t as an OAGIS CreationDateTime.
func FormatTime(t time.Time) string { return t.UTC().Format(oagisTimeLayout) }

// ParseTime parses an OAGIS CreationDateTime.
func ParseTime(s string) (time.Time, error) { return time.Parse(oagisTimeLayout, s) }

// PartyOAGIS identifies a business party in the BOD noun.
type PartyOAGIS struct {
	PartyID string `xml:"PartyID"`
	Name    string `xml:"Name"`
	DUNS    string `xml:"DUNSNumber,omitempty"`
}

var partyXML = formats.NewXMLStruct(
	formats.XMLString("PartyID", func(p *PartyOAGIS) *string { return &p.PartyID }),
	formats.XMLString("Name", func(p *PartyOAGIS) *string { return &p.Name }),
	formats.XMLString("DUNSNumber,omitempty", func(p *PartyOAGIS) *string { return &p.DUNS }),
)

// POLine is one purchase order line in the BOD noun.
type POLine struct {
	LineNumber  int     `xml:"LineNumber"`
	ItemID      string  `xml:"ItemID"`
	Description string  `xml:"Description,omitempty"`
	Quantity    int     `xml:"Quantity"`
	UnitPrice   float64 `xml:"UnitPrice>Amount"`
	Currency    string  `xml:"UnitPrice>Currency"`
}

var poLineXML = formats.NewXMLStruct(
	formats.XMLInt("LineNumber", func(l *POLine) *int { return &l.LineNumber }),
	formats.XMLString("ItemID", func(l *POLine) *string { return &l.ItemID }),
	formats.XMLString("Description,omitempty", func(l *POLine) *string { return &l.Description }),
	formats.XMLInt("Quantity", func(l *POLine) *int { return &l.Quantity }),
	formats.XMLFloat("UnitPrice>Amount", func(l *POLine) *float64 { return &l.UnitPrice }),
	formats.XMLString("UnitPrice>Currency", func(l *POLine) *string { return &l.Currency }),
)

// PurchaseOrderNoun is the PurchaseOrder noun of ProcessPurchaseOrder.
type PurchaseOrderNoun struct {
	DocumentID    string     `xml:"Header>DocumentID"`
	DocumentDate  string     `xml:"Header>DocumentDateTime"`
	Currency      string     `xml:"Header>Currency"`
	CustomerParty PartyOAGIS `xml:"Header>CustomerParty"`
	SupplierParty PartyOAGIS `xml:"Header>SupplierParty"`
	ShipToAddress string     `xml:"Header>ShipTo>Address,omitempty"`
	Note          string     `xml:"Header>Note,omitempty"`
	Lines         []POLine   `xml:"Line"`
}

var purchaseOrderNounXML = formats.NewXMLStruct(
	formats.XMLString("Header>DocumentID", func(n *PurchaseOrderNoun) *string { return &n.DocumentID }),
	formats.XMLString("Header>DocumentDateTime", func(n *PurchaseOrderNoun) *string { return &n.DocumentDate }),
	formats.XMLString("Header>Currency", func(n *PurchaseOrderNoun) *string { return &n.Currency }),
	formats.XMLElem("Header>CustomerParty", partyXML, func(n *PurchaseOrderNoun) *PartyOAGIS { return &n.CustomerParty }),
	formats.XMLElem("Header>SupplierParty", partyXML, func(n *PurchaseOrderNoun) *PartyOAGIS { return &n.SupplierParty }),
	formats.XMLString("Header>ShipTo>Address,omitempty", func(n *PurchaseOrderNoun) *string { return &n.ShipToAddress }),
	formats.XMLString("Header>Note,omitempty", func(n *PurchaseOrderNoun) *string { return &n.Note }),
	formats.XMLList("Line", poLineXML, func(n *PurchaseOrderNoun) *[]POLine { return &n.Lines }),
)

// ProcessPurchaseOrder is the request BOD (verb Process, noun PurchaseOrder).
type ProcessPurchaseOrder struct {
	XMLName         xml.Name          `xml:"ProcessPurchaseOrder"`
	ApplicationArea ApplicationArea   `xml:"ApplicationArea"`
	PurchaseOrder   PurchaseOrderNoun `xml:"DataArea>PurchaseOrder"`
}

// processPOXML is the BOD's codec: its field tables follow the struct tags
// above, field for field.
var processPOXML = formats.NewXMLDoc("oagis", "ProcessPurchaseOrder",
	func(b *ProcessPurchaseOrder) *xml.Name { return &b.XMLName },
	formats.XMLElem("ApplicationArea", applicationAreaXML, func(b *ProcessPurchaseOrder) *ApplicationArea { return &b.ApplicationArea }),
	formats.XMLElem("DataArea>PurchaseOrder", purchaseOrderNounXML, func(b *ProcessPurchaseOrder) *PurchaseOrderNoun { return &b.PurchaseOrder }),
)

// Validate reports structural problems with the BOD.
func (b *ProcessPurchaseOrder) Validate() error {
	var problems []string
	if b.ApplicationArea.BODID == "" {
		problems = append(problems, "missing BODID")
	}
	if b.ApplicationArea.SenderID == "" {
		problems = append(problems, "missing Sender LogicalID")
	}
	if b.PurchaseOrder.DocumentID == "" {
		problems = append(problems, "missing DocumentID")
	}
	if len(b.PurchaseOrder.Lines) == 0 {
		problems = append(problems, "no Line elements")
	}
	for i, l := range b.PurchaseOrder.Lines {
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
		return fmt.Errorf("oagis: invalid ProcessPurchaseOrder %q: %s", b.PurchaseOrder.DocumentID, strings.Join(problems, "; "))
	}
	return nil
}

// Encode renders the BOD as an XML document.
func (b *ProcessPurchaseOrder) Encode() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return processPOXML.Encode(b), nil
}

// DecodeProcessPO parses a ProcessPurchaseOrder BOD.
func DecodeProcessPO(data []byte) (*ProcessPurchaseOrder, error) {
	b, err := processPOXML.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// AckLine is a per-line acknowledgment in the response BOD.
type AckLine struct {
	LineNumber int `xml:"LineNumber"`
	// StatusCode is "Accepted", "Rejected" or "Backordered".
	StatusCode string `xml:"StatusCode"`
	Quantity   int    `xml:"Quantity"`
	// ShipDate is an ISO 8601 timestamp, empty if not scheduled.
	ShipDate string `xml:"ShipDate,omitempty"`
}

var ackLineXML = formats.NewXMLStruct(
	formats.XMLInt("LineNumber", func(l *AckLine) *int { return &l.LineNumber }),
	formats.XMLString("StatusCode", func(l *AckLine) *string { return &l.StatusCode }),
	formats.XMLInt("Quantity", func(l *AckLine) *int { return &l.Quantity }),
	formats.XMLString("ShipDate,omitempty", func(l *AckLine) *string { return &l.ShipDate }),
)

// AcknowledgePurchaseOrderNoun is the acknowledgment noun.
type AcknowledgePurchaseOrderNoun struct {
	DocumentID    string     `xml:"Header>DocumentID"`
	OriginalPOID  string     `xml:"Header>OriginalDocumentID"`
	DocumentDate  string     `xml:"Header>DocumentDateTime"`
	StatusCode    string     `xml:"Header>StatusCode"`
	CustomerParty PartyOAGIS `xml:"Header>CustomerParty"`
	SupplierParty PartyOAGIS `xml:"Header>SupplierParty"`
	Note          string     `xml:"Header>Note,omitempty"`
	Lines         []AckLine  `xml:"Line"`
}

var ackNounXML = formats.NewXMLStruct(
	formats.XMLString("Header>DocumentID", func(n *AcknowledgePurchaseOrderNoun) *string { return &n.DocumentID }),
	formats.XMLString("Header>OriginalDocumentID", func(n *AcknowledgePurchaseOrderNoun) *string { return &n.OriginalPOID }),
	formats.XMLString("Header>DocumentDateTime", func(n *AcknowledgePurchaseOrderNoun) *string { return &n.DocumentDate }),
	formats.XMLString("Header>StatusCode", func(n *AcknowledgePurchaseOrderNoun) *string { return &n.StatusCode }),
	formats.XMLElem("Header>CustomerParty", partyXML, func(n *AcknowledgePurchaseOrderNoun) *PartyOAGIS { return &n.CustomerParty }),
	formats.XMLElem("Header>SupplierParty", partyXML, func(n *AcknowledgePurchaseOrderNoun) *PartyOAGIS { return &n.SupplierParty }),
	formats.XMLString("Header>Note,omitempty", func(n *AcknowledgePurchaseOrderNoun) *string { return &n.Note }),
	formats.XMLList("Line", ackLineXML, func(n *AcknowledgePurchaseOrderNoun) *[]AckLine { return &n.Lines }),
)

// AcknowledgePurchaseOrder is the response BOD (verb Acknowledge).
type AcknowledgePurchaseOrder struct {
	XMLName         xml.Name                     `xml:"AcknowledgePurchaseOrder"`
	ApplicationArea ApplicationArea              `xml:"ApplicationArea"`
	PurchaseOrder   AcknowledgePurchaseOrderNoun `xml:"DataArea>PurchaseOrder"`
}

// acknowledgePOXML is the BOD's codec: its field tables follow the struct
// tags above, field for field.
var acknowledgePOXML = formats.NewXMLDoc("oagis", "AcknowledgePurchaseOrder",
	func(b *AcknowledgePurchaseOrder) *xml.Name { return &b.XMLName },
	formats.XMLElem("ApplicationArea", applicationAreaXML, func(b *AcknowledgePurchaseOrder) *ApplicationArea { return &b.ApplicationArea }),
	formats.XMLElem("DataArea>PurchaseOrder", ackNounXML, func(b *AcknowledgePurchaseOrder) *AcknowledgePurchaseOrderNoun { return &b.PurchaseOrder }),
)

// Validate reports structural problems with the BOD.
func (b *AcknowledgePurchaseOrder) Validate() error {
	var problems []string
	if b.ApplicationArea.BODID == "" {
		problems = append(problems, "missing BODID")
	}
	if b.PurchaseOrder.DocumentID == "" {
		problems = append(problems, "missing DocumentID")
	}
	if b.PurchaseOrder.OriginalPOID == "" {
		problems = append(problems, "missing OriginalDocumentID")
	}
	switch b.PurchaseOrder.StatusCode {
	case "Accepted", "Rejected", "Partial":
	default:
		problems = append(problems, fmt.Sprintf("invalid StatusCode %q", b.PurchaseOrder.StatusCode))
	}
	for i, l := range b.PurchaseOrder.Lines {
		switch l.StatusCode {
		case "Accepted", "Rejected", "Backordered":
		default:
			problems = append(problems, fmt.Sprintf("line %d: invalid StatusCode %q", i, l.StatusCode))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("oagis: invalid AcknowledgePurchaseOrder %q: %s", b.PurchaseOrder.DocumentID, strings.Join(problems, "; "))
	}
	return nil
}

// Encode renders the BOD as an XML document.
func (b *AcknowledgePurchaseOrder) Encode() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return acknowledgePOXML.Encode(b), nil
}

// DecodeAcknowledgePO parses an AcknowledgePurchaseOrder BOD.
func DecodeAcknowledgePO(data []byte) (*AcknowledgePurchaseOrder, error) {
	b, err := acknowledgePOXML.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}
