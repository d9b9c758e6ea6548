// Package rosettanet implements a structurally faithful subset of the
// RosettaNet PIP 3A4 service content: the purchase order request and the
// purchase order confirmation, as XML documents.
//
// This is the "RN" B2B protocol of the paper (reference [40]). PIP 3A4
// defines the exchange of a "create purchase order" message from the Buyer
// role and a "purchase order acceptance" message from the Seller role; the
// processing between them is deliberately undefined (the paper's point —
// PIP processing states are placeholders that a framework like this one
// fills with private processes). The element vocabulary below follows the
// PIP 3A4 dictionary (GlobalBusinessIdentifier, ProductLineItem,
// requestedQuantity, GlobalPurchaseOrderStatusCode, …) with the deep
// nesting reduced to what the round trip needs.
package rosettanet

import (
	"encoding/xml"
	"fmt"
	"strings"
	"time"

	"repro/internal/formats"
)

// PartnerRole identifies one of the two PIP roles and its business identity.
type PartnerRole struct {
	// RoleClassification is the GlobalPartnerRoleClassificationCode:
	// "Buyer" or "Seller".
	RoleClassification string `xml:"PartnerRoleDescription>GlobalPartnerRoleClassificationCode"`
	// BusinessIdentifier is the GlobalBusinessIdentifier (DUNS).
	BusinessIdentifier string `xml:"PartnerRoleDescription>PartnerDescription>BusinessDescription>GlobalBusinessIdentifier"`
	// ProprietaryIdentifier carries the mutually agreed trading partner ID
	// used for routing (the paper's "TP1"/"TP2").
	ProprietaryIdentifier string `xml:"PartnerRoleDescription>PartnerDescription>BusinessDescription>proprietaryBusinessIdentifier"`
	// BusinessName is the display name.
	BusinessName string `xml:"PartnerRoleDescription>PartnerDescription>BusinessDescription>businessName"`
}

var partnerRoleXML = formats.NewXMLStruct(
	formats.XMLString("PartnerRoleDescription>GlobalPartnerRoleClassificationCode", func(r *PartnerRole) *string { return &r.RoleClassification }),
	formats.XMLString("PartnerRoleDescription>PartnerDescription>BusinessDescription>GlobalBusinessIdentifier", func(r *PartnerRole) *string { return &r.BusinessIdentifier }),
	formats.XMLString("PartnerRoleDescription>PartnerDescription>BusinessDescription>proprietaryBusinessIdentifier", func(r *PartnerRole) *string { return &r.ProprietaryIdentifier }),
	formats.XMLString("PartnerRoleDescription>PartnerDescription>BusinessDescription>businessName", func(r *PartnerRole) *string { return &r.BusinessName }),
)

// FinancialAmount is a currency-qualified monetary amount.
type FinancialAmount struct {
	Currency string  `xml:"GlobalCurrencyCode"`
	Amount   float64 `xml:"MonetaryAmount"`
}

var financialAmountXML = formats.NewXMLStruct(
	formats.XMLString("GlobalCurrencyCode", func(a *FinancialAmount) *string { return &a.Currency }),
	formats.XMLFloat("MonetaryAmount", func(a *FinancialAmount) *float64 { return &a.Amount }),
)

// ProductLineItem is one requested order line.
type ProductLineItem struct {
	LineNumber         int             `xml:"LineNumber"`
	ProductIdentifier  string          `xml:"GlobalProductIdentifier"`
	ProductDescription string          `xml:"ProductDescription,omitempty"`
	RequestedQuantity  int             `xml:"OrderQuantity>requestedQuantity"`
	RequestedUnitPrice FinancialAmount `xml:"requestedUnitPrice>FinancialAmount"`
}

var productLineItemXML = formats.NewXMLStruct(
	formats.XMLInt("LineNumber", func(li *ProductLineItem) *int { return &li.LineNumber }),
	formats.XMLString("GlobalProductIdentifier", func(li *ProductLineItem) *string { return &li.ProductIdentifier }),
	formats.XMLString("ProductDescription,omitempty", func(li *ProductLineItem) *string { return &li.ProductDescription }),
	formats.XMLInt("OrderQuantity>requestedQuantity", func(li *ProductLineItem) *int { return &li.RequestedQuantity }),
	formats.XMLElem("requestedUnitPrice>FinancialAmount", financialAmountXML, func(li *ProductLineItem) *FinancialAmount { return &li.RequestedUnitPrice }),
)

// PurchaseOrderRequest is the PIP 3A4 purchase order request action.
type PurchaseOrderRequest struct {
	XMLName            xml.Name          `xml:"Pip3A4PurchaseOrderRequest"`
	FromRole           PartnerRole       `xml:"fromRole"`
	ToRole             PartnerRole       `xml:"toRole"`
	DocumentIdentifier string            `xml:"thisDocumentIdentifier>ProprietaryDocumentIdentifier"`
	GenerationDateTime string            `xml:"thisDocumentGenerationDateTime>DateTimeStamp"`
	OrderType          string            `xml:"PurchaseOrder>GlobalPurchaseOrderTypeCode"`
	Currency           string            `xml:"PurchaseOrder>GlobalCurrencyCode"`
	DeliverTo          string            `xml:"PurchaseOrder>deliverTo>PhysicalLocation>addressLine,omitempty"`
	Comment            string            `xml:"PurchaseOrder>comment,omitempty"`
	LineItems          []ProductLineItem `xml:"PurchaseOrder>ProductLineItem"`
}

// requestXML is the request's codec: its field table follows the struct
// tags above, field for field.
var requestXML = formats.NewXMLDoc("rosettanet", "Pip3A4PurchaseOrderRequest",
	func(r *PurchaseOrderRequest) *xml.Name { return &r.XMLName },
	formats.XMLElem("fromRole", partnerRoleXML, func(r *PurchaseOrderRequest) *PartnerRole { return &r.FromRole }),
	formats.XMLElem("toRole", partnerRoleXML, func(r *PurchaseOrderRequest) *PartnerRole { return &r.ToRole }),
	formats.XMLString("thisDocumentIdentifier>ProprietaryDocumentIdentifier", func(r *PurchaseOrderRequest) *string { return &r.DocumentIdentifier }),
	formats.XMLString("thisDocumentGenerationDateTime>DateTimeStamp", func(r *PurchaseOrderRequest) *string { return &r.GenerationDateTime }),
	formats.XMLString("PurchaseOrder>GlobalPurchaseOrderTypeCode", func(r *PurchaseOrderRequest) *string { return &r.OrderType }),
	formats.XMLString("PurchaseOrder>GlobalCurrencyCode", func(r *PurchaseOrderRequest) *string { return &r.Currency }),
	formats.XMLString("PurchaseOrder>deliverTo>PhysicalLocation>addressLine,omitempty", func(r *PurchaseOrderRequest) *string { return &r.DeliverTo }),
	formats.XMLString("PurchaseOrder>comment,omitempty", func(r *PurchaseOrderRequest) *string { return &r.Comment }),
	formats.XMLList("PurchaseOrder>ProductLineItem", productLineItemXML, func(r *PurchaseOrderRequest) *[]ProductLineItem { return &r.LineItems }),
)

// rnTimeLayout is the RosettaNet DateTimeStamp layout (UTC, basic format).
const rnTimeLayout = "20060102T150405Z"

// FormatTime renders t as a RosettaNet DateTimeStamp.
func FormatTime(t time.Time) string { return t.UTC().Format(rnTimeLayout) }

// ParseTime parses a RosettaNet DateTimeStamp.
func ParseTime(s string) (time.Time, error) { return time.Parse(rnTimeLayout, s) }

// Validate reports structural problems with the request.
func (r *PurchaseOrderRequest) Validate() error {
	var problems []string
	if r.DocumentIdentifier == "" {
		problems = append(problems, "missing thisDocumentIdentifier")
	}
	if r.FromRole.RoleClassification != "Buyer" {
		problems = append(problems, fmt.Sprintf("fromRole classification %q, want Buyer", r.FromRole.RoleClassification))
	}
	if r.ToRole.RoleClassification != "Seller" {
		problems = append(problems, fmt.Sprintf("toRole classification %q, want Seller", r.ToRole.RoleClassification))
	}
	if len(r.LineItems) == 0 {
		problems = append(problems, "no ProductLineItem")
	}
	for i, li := range r.LineItems {
		if li.LineNumber <= 0 {
			problems = append(problems, fmt.Sprintf("line %d: non-positive LineNumber", i))
		}
		if li.RequestedQuantity <= 0 {
			problems = append(problems, fmt.Sprintf("line %d: non-positive requestedQuantity", i))
		}
		if li.ProductIdentifier == "" {
			problems = append(problems, fmt.Sprintf("line %d: missing GlobalProductIdentifier", i))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("rosettanet: invalid 3A4 request %q: %s", r.DocumentIdentifier, strings.Join(problems, "; "))
	}
	return nil
}

// Encode renders the request as an XML document.
func (r *PurchaseOrderRequest) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return requestXML.Encode(r), nil
}

// DecodeRequest parses an XML 3A4 purchase order request.
func DecodeRequest(data []byte) (*PurchaseOrderRequest, error) {
	r, err := requestXML.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// LineStatus is the per-line confirmation status.
type LineStatus struct {
	LineNumber int `xml:"LineNumber"`
	// StatusCode is the GlobalPurchaseOrderStatusCode: "Accept", "Reject"
	// or "Backordered".
	StatusCode string `xml:"GlobalPurchaseOrderStatusCode"`
	// ConfirmedQuantity echoes or reduces the requested quantity.
	ConfirmedQuantity int `xml:"OrderQuantity>confirmedQuantity"`
	// ScheduledShipDate is a DateTimeStamp, empty if not scheduled.
	ScheduledShipDate string `xml:"scheduledShipDate>DateTimeStamp,omitempty"`
}

var lineStatusXML = formats.NewXMLStruct(
	formats.XMLInt("LineNumber", func(li *LineStatus) *int { return &li.LineNumber }),
	formats.XMLString("GlobalPurchaseOrderStatusCode", func(li *LineStatus) *string { return &li.StatusCode }),
	formats.XMLInt("OrderQuantity>confirmedQuantity", func(li *LineStatus) *int { return &li.ConfirmedQuantity }),
	formats.XMLString("scheduledShipDate>DateTimeStamp,omitempty", func(li *LineStatus) *string { return &li.ScheduledShipDate }),
)

// PurchaseOrderConfirmation is the PIP 3A4 purchase order confirmation
// action returned by the Seller.
type PurchaseOrderConfirmation struct {
	XMLName            xml.Name    `xml:"Pip3A4PurchaseOrderConfirmation"`
	FromRole           PartnerRole `xml:"fromRole"`
	ToRole             PartnerRole `xml:"toRole"`
	DocumentIdentifier string      `xml:"thisDocumentIdentifier>ProprietaryDocumentIdentifier"`
	RequestIdentifier  string      `xml:"requestingDocumentIdentifier>ProprietaryDocumentIdentifier"`
	GenerationDateTime string      `xml:"thisDocumentGenerationDateTime>DateTimeStamp"`
	// StatusCode is the document-level GlobalPurchaseOrderStatusCode:
	// "Accept", "Reject" or "Pending" (partial).
	StatusCode string       `xml:"PurchaseOrder>GlobalPurchaseOrderStatusCode"`
	Comment    string       `xml:"PurchaseOrder>comment,omitempty"`
	LineItems  []LineStatus `xml:"PurchaseOrder>ProductLineItem"`
}

// confirmationXML is the confirmation's codec: its field table follows the
// struct tags above, field for field.
var confirmationXML = formats.NewXMLDoc("rosettanet", "Pip3A4PurchaseOrderConfirmation",
	func(c *PurchaseOrderConfirmation) *xml.Name { return &c.XMLName },
	formats.XMLElem("fromRole", partnerRoleXML, func(c *PurchaseOrderConfirmation) *PartnerRole { return &c.FromRole }),
	formats.XMLElem("toRole", partnerRoleXML, func(c *PurchaseOrderConfirmation) *PartnerRole { return &c.ToRole }),
	formats.XMLString("thisDocumentIdentifier>ProprietaryDocumentIdentifier", func(c *PurchaseOrderConfirmation) *string { return &c.DocumentIdentifier }),
	formats.XMLString("requestingDocumentIdentifier>ProprietaryDocumentIdentifier", func(c *PurchaseOrderConfirmation) *string { return &c.RequestIdentifier }),
	formats.XMLString("thisDocumentGenerationDateTime>DateTimeStamp", func(c *PurchaseOrderConfirmation) *string { return &c.GenerationDateTime }),
	formats.XMLString("PurchaseOrder>GlobalPurchaseOrderStatusCode", func(c *PurchaseOrderConfirmation) *string { return &c.StatusCode }),
	formats.XMLString("PurchaseOrder>comment,omitempty", func(c *PurchaseOrderConfirmation) *string { return &c.Comment }),
	formats.XMLList("PurchaseOrder>ProductLineItem", lineStatusXML, func(c *PurchaseOrderConfirmation) *[]LineStatus { return &c.LineItems }),
)

// Validate reports structural problems with the confirmation.
func (c *PurchaseOrderConfirmation) Validate() error {
	var problems []string
	if c.DocumentIdentifier == "" {
		problems = append(problems, "missing thisDocumentIdentifier")
	}
	if c.RequestIdentifier == "" {
		problems = append(problems, "missing requestingDocumentIdentifier")
	}
	switch c.StatusCode {
	case "Accept", "Reject", "Pending":
	default:
		problems = append(problems, fmt.Sprintf("invalid status code %q", c.StatusCode))
	}
	for i, li := range c.LineItems {
		switch li.StatusCode {
		case "Accept", "Reject", "Backordered":
		default:
			problems = append(problems, fmt.Sprintf("line %d: invalid status code %q", i, li.StatusCode))
		}
		if li.LineNumber <= 0 {
			problems = append(problems, fmt.Sprintf("line %d: non-positive LineNumber", i))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("rosettanet: invalid 3A4 confirmation %q: %s", c.DocumentIdentifier, strings.Join(problems, "; "))
	}
	return nil
}

// Encode renders the confirmation as an XML document.
func (c *PurchaseOrderConfirmation) Encode() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return confirmationXML.Encode(c), nil
}

// DecodeConfirmation parses an XML 3A4 purchase order confirmation.
func DecodeConfirmation(data []byte) (*PurchaseOrderConfirmation, error) {
	c, err := confirmationXML.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
