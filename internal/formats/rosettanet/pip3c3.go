package rosettanet

import (
	"encoding/xml"
	"fmt"
	"strings"

	"repro/internal/formats"
)

// InvoiceLineItem is one billed line of a PIP 3C3 invoice notification.
type InvoiceLineItem struct {
	LineNumber         int             `xml:"LineNumber"`
	ProductIdentifier  string          `xml:"GlobalProductIdentifier"`
	ProductDescription string          `xml:"ProductDescription,omitempty"`
	InvoiceQuantity    int             `xml:"InvoiceQuantity"`
	UnitPrice          FinancialAmount `xml:"unitPrice>FinancialAmount"`
}

var invoiceLineItemXML = formats.NewXMLStruct(
	formats.XMLInt("LineNumber", func(li *InvoiceLineItem) *int { return &li.LineNumber }),
	formats.XMLString("GlobalProductIdentifier", func(li *InvoiceLineItem) *string { return &li.ProductIdentifier }),
	formats.XMLString("ProductDescription,omitempty", func(li *InvoiceLineItem) *string { return &li.ProductDescription }),
	formats.XMLInt("InvoiceQuantity", func(li *InvoiceLineItem) *int { return &li.InvoiceQuantity }),
	formats.XMLElem("unitPrice>FinancialAmount", financialAmountXML, func(li *InvoiceLineItem) *FinancialAmount { return &li.UnitPrice }),
)

// InvoiceNotification is the PIP 3C3 invoice notification action: a
// one-way message from the Seller role (the paper's "one-way messages"
// pattern — no response action is defined for 3C3).
type InvoiceNotification struct {
	XMLName            xml.Name    `xml:"Pip3C3InvoiceNotification"`
	FromRole           PartnerRole `xml:"fromRole"`
	ToRole             PartnerRole `xml:"toRole"`
	DocumentIdentifier string      `xml:"thisDocumentIdentifier>ProprietaryDocumentIdentifier"`
	// PurchaseOrderReference is the invoiced order.
	PurchaseOrderReference string `xml:"Invoice>purchaseOrderReference>ProprietaryDocumentIdentifier"`
	GenerationDateTime     string `xml:"thisDocumentGenerationDateTime>DateTimeStamp"`
	// PaymentDueDate is a DateTimeStamp.
	PaymentDueDate string            `xml:"Invoice>paymentDueDate>DateTimeStamp,omitempty"`
	Currency       string            `xml:"Invoice>GlobalCurrencyCode"`
	Comment        string            `xml:"Invoice>comment,omitempty"`
	LineItems      []InvoiceLineItem `xml:"Invoice>InvoiceLineItem"`
}

// notificationXML is the notification's codec: its field table follows
// the struct tags above, field for field.
var notificationXML = formats.NewXMLDoc("rosettanet", "Pip3C3InvoiceNotification",
	func(n *InvoiceNotification) *xml.Name { return &n.XMLName },
	formats.XMLElem("fromRole", partnerRoleXML, func(n *InvoiceNotification) *PartnerRole { return &n.FromRole }),
	formats.XMLElem("toRole", partnerRoleXML, func(n *InvoiceNotification) *PartnerRole { return &n.ToRole }),
	formats.XMLString("thisDocumentIdentifier>ProprietaryDocumentIdentifier", func(n *InvoiceNotification) *string { return &n.DocumentIdentifier }),
	formats.XMLString("Invoice>purchaseOrderReference>ProprietaryDocumentIdentifier", func(n *InvoiceNotification) *string { return &n.PurchaseOrderReference }),
	formats.XMLString("thisDocumentGenerationDateTime>DateTimeStamp", func(n *InvoiceNotification) *string { return &n.GenerationDateTime }),
	formats.XMLString("Invoice>paymentDueDate>DateTimeStamp,omitempty", func(n *InvoiceNotification) *string { return &n.PaymentDueDate }),
	formats.XMLString("Invoice>GlobalCurrencyCode", func(n *InvoiceNotification) *string { return &n.Currency }),
	formats.XMLString("Invoice>comment,omitempty", func(n *InvoiceNotification) *string { return &n.Comment }),
	formats.XMLList("Invoice>InvoiceLineItem", invoiceLineItemXML, func(n *InvoiceNotification) *[]InvoiceLineItem { return &n.LineItems }),
)

// Validate reports structural problems with the notification.
func (n *InvoiceNotification) Validate() error {
	var problems []string
	if n.DocumentIdentifier == "" {
		problems = append(problems, "missing thisDocumentIdentifier")
	}
	if n.PurchaseOrderReference == "" {
		problems = append(problems, "missing purchaseOrderReference")
	}
	if n.FromRole.RoleClassification != "Seller" {
		problems = append(problems, fmt.Sprintf("fromRole classification %q, want Seller", n.FromRole.RoleClassification))
	}
	if n.ToRole.RoleClassification != "Buyer" {
		problems = append(problems, fmt.Sprintf("toRole classification %q, want Buyer", n.ToRole.RoleClassification))
	}
	if len(n.LineItems) == 0 {
		problems = append(problems, "no InvoiceLineItem")
	}
	for i, li := range n.LineItems {
		if li.LineNumber <= 0 {
			problems = append(problems, fmt.Sprintf("line %d: non-positive LineNumber", i))
		}
		if li.InvoiceQuantity <= 0 {
			problems = append(problems, fmt.Sprintf("line %d: non-positive InvoiceQuantity", i))
		}
		if li.ProductIdentifier == "" {
			problems = append(problems, fmt.Sprintf("line %d: missing GlobalProductIdentifier", i))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("rosettanet: invalid 3C3 notification %q: %s", n.DocumentIdentifier, strings.Join(problems, "; "))
	}
	return nil
}

// Encode renders the notification as an XML document.
func (n *InvoiceNotification) Encode() ([]byte, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return notificationXML.Encode(n), nil
}

// DecodeInvoiceNotification parses an XML 3C3 invoice notification.
func DecodeInvoiceNotification(data []byte) (*InvoiceNotification, error) {
	n, err := notificationXML.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
