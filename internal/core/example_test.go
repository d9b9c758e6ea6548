package core_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
)

// ExampleHub_Do builds the minimal advanced model — one EDI partner, one
// SAP back end — and runs one PO/POA exchange through the full
// public-process → binding → private-process → application-binding chain
// with the unified submission API.
func ExampleHub_Do() {
	model, err := core.BuildModel(
		[]core.TradingPartner{{
			ID: "TP1", Name: "Acme Corp", Protocol: formats.EDI,
			Backend: "SAP", ApprovalThreshold: 55000,
		}},
		[]core.Backend{{Name: "SAP", Format: formats.SAPIDoc}},
	)
	if err != nil {
		log.Fatal(err)
	}
	hub, err := core.NewHub(model)
	if err != nil {
		log.Fatal(err)
	}
	po := &doc.PurchaseOrder{
		ID:       "PO-TP1-000001",
		Buyer:    doc.Party{ID: "TP1", Name: "Acme Corp"},
		Seller:   doc.Party{ID: "HUB", Name: "Widget Inc"},
		Currency: "USD",
		Lines:    []doc.Line{{Number: 1, SKU: "LAP-100", Quantity: 40, UnitPrice: 1450}},
	}
	res, err := hub.Do(context.Background(), core.Request{Kind: core.DocPO, PO: po})
	if err != nil {
		log.Fatal(err)
	}
	priv, _ := hub.PrivateInstance(res.Exchange)
	fmt.Println("status:", res.POA.Status)
	fmt.Println("needs approval:", priv.Data["needsApproval"])
	// Drain stops the hub for good once its exchanges have finished.
	if _, err := hub.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
	// Output:
	// status: accepted
	// needs approval: true
}

// ExampleModel_AddPartner applies the paper's Figure 15 change: a third
// trading partner with a new protocol adds one public process, one binding
// and one business rule — the private process is untouched.
func ExampleModel_AddPartner() {
	model, err := core.PaperFigure14Model()
	if err != nil {
		log.Fatal(err)
	}
	rec, err := model.AddPartner(core.Figure15Partner())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("types added:", len(rec.TypesAdded))
	fmt.Println("rules added:", rec.RulesAdded)
	fmt.Println("private process touched:", rec.PrivateTouched)
	// Output:
	// types added: 2
	// rules added: 1
	// private process touched: false
}
