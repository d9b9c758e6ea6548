package core

import (
	"context"
	"fmt"

	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/obs"
	"repro/internal/wf"
)

// The invoice flow is the paper's "one-way messages" pattern running in
// the outbound direction: the back end bills a fulfilled order, the
// invoice travels application binding → private process → binding →
// public process → partner, and no response comes back. Enabling it is
// Section 4.6's "adding a new private process" case: new artifacts are
// added (one private process, one binding and one public process per
// protocol, one application binding per back end, one business rule per
// partner) and nothing existing is modified.

// Invoice flow port names.
const (
	PortInvAppOut  = "inv.app.out"
	PortInvPrivIn  = "inv.priv.in"
	PortInvPrivOut = "inv.priv.out"
	PortInvBindIn  = "inv.bind.in"
	PortInvBindOut = "inv.bind.out"
	PortInvPubIn   = "inv.pub.in"
)

// Invoice flow type names.
func InvoicePublicProcessName(p formats.Format) string { return "public-inv:" + string(p) }
func InvoiceBindingName(p formats.Format) string       { return "binding-inv:" + string(p) }
func InvoiceAppBindingName(backend string) string      { return "appbinding-inv:" + backend }

// InvoicePrivateProcessName is the invoice-dispatch private process: like
// the PO private process it is free of partner/protocol/backend
// identifiers.
const InvoicePrivateProcessName = "private:invoice-dispatch"

// InvoiceReviewRuleSet is the rule set the invoice private process binds to.
const InvoiceReviewRuleSet = "check-invoice-review"

// BuildInvoiceAppBinding generates the application binding that extracts a
// billing document from the back end and normalizes it.
func BuildInvoiceAppBinding(b Backend) (*wf.TypeDef, error) {
	t := &wf.TypeDef{
		Name: InvoiceAppBindingName(b.Name), Version: 1,
		Steps: []wf.StepDef{
			{Name: fmt.Sprintf("Extract %s Invoice", b.Name), Kind: wf.StepTask, Handler: "app-inv-extract:" + b.Name},
			{Name: "Transform to normalized Invoice", Kind: wf.StepTask, Role: wf.RoleTransform, Handler: "app-inv-xform:" + b.Name},
			{Name: "To private", Kind: wf.StepConnection, Dir: wf.DirOut, Port: PortInvAppOut},
		},
		Arcs: []wf.Arc{
			{From: fmt.Sprintf("Extract %s Invoice", b.Name), To: "Transform to normalized Invoice"},
			{From: "Transform to normalized Invoice", To: "To private"},
		},
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildInvoicePrivateProcess generates the invoice-dispatch private
// process: receive the normalized invoice, consult the external review
// rule, optionally review, pass on.
func BuildInvoicePrivateProcess() (*wf.TypeDef, error) {
	t := &wf.TypeDef{
		Name: InvoicePrivateProcessName, Version: 1,
		Steps: []wf.StepDef{
			{Name: "From application", Kind: wf.StepConnection, Dir: wf.DirIn, Port: PortInvPrivIn, DataKey: "document"},
			{Name: "Check invoice review", Kind: wf.StepTask, Handler: "rule:" + InvoiceReviewRuleSet},
			{Name: "Review invoice", Kind: wf.StepTask, Handler: "review"},
			{Name: "To binding", Kind: wf.StepConnection, Dir: wf.DirOut, Port: PortInvPrivOut, Join: wf.JoinAny},
		},
		Arcs: []wf.Arc{
			{From: "From application", To: "Check invoice review"},
			{From: "Check invoice review", To: "Review invoice", Condition: "reviewNeeded == true"},
			{From: "Check invoice review", To: "To binding", Condition: "reviewNeeded == false"},
			{From: "Review invoice", To: "To binding"},
		},
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildInvoiceBinding generates the protocol binding of the invoice flow:
// normalized → protocol-native transformation.
func BuildInvoiceBinding(p formats.Format) (*wf.TypeDef, error) {
	t := &wf.TypeDef{
		Name: InvoiceBindingName(p), Version: 1,
		Steps: []wf.StepDef{
			{Name: "From private", Kind: wf.StepConnection, Dir: wf.DirIn, Port: PortInvBindIn, DataKey: "document"},
			{Name: fmt.Sprintf("Transform to %s Invoice", p), Kind: wf.StepTask, Role: wf.RoleTransform, Handler: "bind-inv-xform:" + string(p)},
			{Name: "To public", Kind: wf.StepConnection, Dir: wf.DirOut, Port: PortInvBindOut},
		},
		Arcs: []wf.Arc{
			{From: "From private", To: fmt.Sprintf("Transform to %s Invoice", p)},
			{From: fmt.Sprintf("Transform to %s Invoice", p), To: "To public"},
		},
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildInvoicePublicProcess generates the one-way public process: send the
// protocol-native invoice; no response step exists.
func BuildInvoicePublicProcess(p formats.Format) (*wf.TypeDef, error) {
	t := &wf.TypeDef{
		Name: InvoicePublicProcessName(p), Version: 1,
		Steps: []wf.StepDef{
			{Name: "From binding", Kind: wf.StepConnection, Dir: wf.DirIn, Port: PortInvPubIn, DataKey: "document"},
			{Name: fmt.Sprintf("Send %s Invoice", p), Kind: wf.StepSend, Port: PortPublicOut, Message: "Invoice"},
		},
		Arcs: []wf.Arc{
			{From: "From binding", To: fmt.Sprintf("Send %s Invoice", p)},
		},
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// sendInvoice runs the outbound invoice flow for a fulfilled order: it
// extracts the billing document from the partner's back end, drives it
// through the invoice chain and returns the protocol-native wire bytes
// ready to transmit, plus the exchange record. A failed invoice exchange is
// parked on the dead-letter queue with the request.
func (h *Hub) sendInvoice(ctx context.Context, req Request) ([]byte, *Exchange, error) {
	snap := h.snap.Load()
	if snap.Model.InvoicePrivate == nil {
		return nil, nil, fmt.Errorf("core: invoicing is not enabled")
	}
	route, ok := snap.Model.routes[req.PartnerID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownPartner, req.PartnerID)
	}
	var outbound any
	ex, err := h.runExchange(ctx, snap, route, obs.FlowInvoice, req, req.POID, func(ctx context.Context, ex *Exchange) (err error) {
		outbound, err = h.runInvoice(ctx, ex, req.POID)
		return err
	})
	if err != nil {
		return nil, ex, err
	}
	codec, err := h.codecs.Lookup(route.partner.Protocol, doc.TypeINV)
	if err != nil {
		return nil, ex, err
	}
	wire, err := codec.Encode(outbound)
	if err != nil {
		return nil, ex, err
	}
	return wire, ex, nil
}

// runInvoice drives the outbound invoice chain of an already-created
// exchange and returns the protocol-native outbound document.
func (h *Hub) runInvoice(ctx context.Context, ex *Exchange, poID string) (any, error) {
	data := h.exchangeData(ex)
	data["poid"] = poID
	app, err := h.Engine.StartVersion(ctx, ex.route.invAppBinding, h.pinnedVersion(ex, ex.route.invAppBinding), data)
	if app != nil {
		ex.AppID = app.ID // a failed start is stored too, and forgotten with the exchange
	}
	if err != nil {
		// The application binding extracts the invoice from the back end,
		// so its failure is the endpoint's and counts toward the breaker.
		return nil, wrapExchangeErr(ex, obs.StageApp, "", err)
	}
	h.emitRoute(ex, "invoice flow started from application binding "+app.ID)
	if err := h.pump(ctx, ex); err != nil {
		return nil, err
	}
	h.mu.Lock()
	outbound := ex.Outbound
	h.mu.Unlock()
	if outbound == nil {
		return nil, fmt.Errorf("%w (invoice exchange %s)", ErrNoOutbound, ex.ID)
	}
	return outbound, nil
}
