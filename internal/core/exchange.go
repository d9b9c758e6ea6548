package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/obs"
	"repro/internal/wf"
)

// processInboundPO decodes an inbound protocol-native purchase order, runs
// it through the full chain and encodes the outbound POA wire bytes.
func (h *Hub) processInboundPO(ctx context.Context, req Request) ([]byte, *Exchange, error) {
	poCodec, err := h.codecs.Lookup(req.Protocol, doc.TypePO)
	if err != nil {
		return nil, nil, err
	}
	native, err := poCodec.Decode(req.Wire)
	if err != nil {
		return nil, nil, fmt.Errorf("core: inbound %s PO: %w", req.Protocol, err)
	}
	ex, err := h.processPO(ctx, h.snap.Load(), req, req.Protocol, native)
	if err != nil {
		return nil, ex, err
	}
	poaCodec, err := h.codecs.Lookup(req.Protocol, doc.TypePOA)
	if err != nil {
		return nil, ex, err
	}
	out, err := poaCodec.Encode(ex.Outbound)
	if err != nil {
		return nil, ex, fmt.Errorf("core: outbound %s POA: %w", req.Protocol, err)
	}
	return out, ex, nil
}

// roundTrip is the normalized-document flow: it converts the PO to the
// buyer's registered protocol, processes it, and converts the returned POA
// back to the normalized model.
func (h *Hub) roundTrip(ctx context.Context, req Request) (*doc.PurchaseOrderAck, *Exchange, error) {
	snap := h.snap.Load()
	route, ok := snap.Model.routes[req.PO.Buyer.ID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownPartner, req.PO.Buyer.ID)
	}
	native, err := h.reg.FromNormalized(route.partner.Protocol, doc.TypePO, req.PO)
	if err != nil {
		return nil, nil, err
	}
	ex, err := h.processPO(ctx, snap, req, route.partner.Protocol, native)
	if err != nil {
		return nil, ex, err
	}
	nd, err := h.reg.ToNormalized(route.partner.Protocol, doc.TypePOA, ex.Outbound)
	if err != nil {
		return nil, ex, err
	}
	return nd.(*doc.PurchaseOrderAck), ex, nil
}

// processPO runs the chain for a decoded native PO of the request on the
// snapshot it was admitted under; a failed exchange is parked on the
// dead-letter queue with the request.
func (h *Hub) processPO(ctx context.Context, snap *Snapshot, req Request, protocol formats.Format, native any) (*Exchange, error) {
	// Identify the sending partner from the document itself (buyer ID).
	nd, err := h.reg.ToNormalized(protocol, doc.TypePO, native)
	if err != nil {
		return nil, err
	}
	po := nd.(*doc.PurchaseOrder)
	route, ok := snap.Model.routes[po.Buyer.ID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPartner, po.Buyer.ID)
	}
	if route.partner.Protocol != protocol {
		return nil, fmt.Errorf("%w: partner %s is registered for %s, not %s",
			ErrProtocolMismatch, route.partner.ID, route.partner.Protocol, protocol)
	}

	return h.runExchange(ctx, snap, route, obs.FlowPO, req, po.ID, func(ctx context.Context, ex *Exchange) error {
		return h.runPO(ctx, ex, native)
	})
}

// runExchange runs one exchange of the request on the snapshot it was
// admitted under: it starts the exchange, drives it with run under a
// context that carries it, and parks a failed one on the dead-letter queue
// with the request.
func (h *Hub) runExchange(ctx context.Context, snap *Snapshot, route *resolvedRoute, flow obs.Flow, req Request, canaryKey string, run func(context.Context, *Exchange) error) (*Exchange, error) {
	ex := h.newExchange(snap, route, flow, &req, canaryKey)
	start := time.Now()
	h.emitLifecycle(ex, obs.StepStarted, 0, nil)
	err := wrapExchangeErr(ex, obs.StageExchange, "", run(withExchange(ctx, ex), ex))
	h.emitLifecycle(ex, terminalStep(err), time.Since(start), err)
	h.recordCanaryOutcome(ex, err)
	if err != nil {
		h.deadLetter(ex, err, rerunRequest(req, ex))
	}
	return ex, err
}

// runPO drives the inbound PO chain of an already-created exchange.
func (h *Hub) runPO(ctx context.Context, ex *Exchange, native any) error {
	// Start the public process at the exchange's pinned version; it parks on
	// its receive step.
	pub, err := h.Engine.StartVersion(ctx, ex.route.publicName, h.pinnedVersion(ex, ex.route.publicName), h.exchangeData(ex))
	if pub != nil {
		ex.PublicID = pub.ID // a failed start is stored too, and forgotten with the exchange
	}
	if err != nil {
		return err
	}
	h.emitRoute(ex, "public process "+pub.ID+" started")
	if err := h.Engine.Deliver(ctx, pub.ID, PortPublicIn, native); err != nil {
		return err
	}
	if err := h.pump(ctx, ex); err != nil {
		return err
	}
	h.mu.Lock()
	done := ex.Outbound != nil
	h.mu.Unlock()
	if !done {
		got, _ := h.Engine.Instance(pub.ID)
		return fmt.Errorf("%w (exchange %s, public instance: %s)", ErrNoOutbound, ex.ID, got.Summary())
	}
	return nil
}

// newExchange allocates an exchange record that runs on the snapshot it was
// admitted under and starts it in the ledger. It copies the request's
// execution flags — never the request itself, since the ledger keeps a
// record while the exchange runs or is parked and for the retention window
// after it finished. canaryKey is the stable business identifier (PO ID)
// canary routing hashes on, so a resubmitted document lands on the same arm
// as its original run; empty falls back to the exchange ID.
func (h *Hub) newExchange(snap *Snapshot, route *resolvedRoute, flow obs.Flow, req *Request, canaryKey string) *Exchange {
	ex := &Exchange{
		Partner:  route.partner,
		Protocol: route.partner.Protocol,
		Backend:  route.partner.Backend,
		Flow:     flow,
		route:    route,
		snap:     snap,
		resubmit: req.resubmit,
		retry:    req.Retry,
	}
	h.ledger.start(ex, canaryKey)
	return ex
}

// emitRoute records one routing hop of an exchange on the event bus.
func (h *Hub) emitRoute(ex *Exchange, hop string) {
	h.bus.Emit(obs.Event{
		ExchangeID: ex.ID,
		Partner:    ex.Partner.ID,
		Flow:       ex.Flow,
		Kind:       obs.KindRoute,
		Stage:      obs.StageRoute,
		Step:       hop,
	})
}

// emitLifecycle records an exchange lifecycle transition ("started",
// "finished", "failed", "dead-letter") on the event bus.
func (h *Hub) emitLifecycle(ex *Exchange, step string, elapsed time.Duration, err error) {
	h.bus.Emit(obs.Event{
		ExchangeID: ex.ID,
		Partner:    ex.Partner.ID,
		Flow:       ex.Flow,
		Kind:       obs.KindExchange,
		Stage:      obs.StageExchange,
		Step:       step,
		Elapsed:    elapsed,
		Err:        err,
	})
}

func terminalStep(err error) string {
	if err != nil {
		return "failed"
	}
	return "finished"
}

// exchangeData is the instance data every process instance of an exchange
// starts with: the exchange ID plus the rule parameters source and target.
func (h *Hub) exchangeData(ex *Exchange) map[string]any {
	data := map[string]any{
		"exchange": ex.ID,
		"source":   ex.Partner.ID,
		"target":   ex.Backend,
		"protocol": string(ex.Protocol),
	}
	if ex.resubmit {
		data["resubmit"] = true
	}
	return data
}

// pump drains the exchange's routing queue: each task either starts the
// next process of the chain (lazily) and delivers the payload to it, or
// delivers the payload back to an upstream process waiting on a reply
// port. Only the goroutine driving the exchange pumps its queue.
func (h *Hub) pump(ctx context.Context, ex *Exchange) error {
	for {
		if err := ctx.Err(); err != nil {
			return wrapExchangeErr(ex, obs.StageExchange, "", err)
		}
		t, ok := h.dequeue(ex)
		if !ok {
			return nil
		}
		if err := h.route(ctx, ex, t); err != nil {
			return wrapExchangeErr(ex, stageForPort(t.port), t.port, err)
		}
	}
}

func (h *Hub) route(ctx context.Context, ex *Exchange, t routeTask) error {
	switch t.port {
	case PortPublicToBinding:
		id, err := h.ensureInstance(ctx, &ex.BindingID, ex.route.bindingName, ex)
		if err != nil {
			return err
		}
		h.emitRoute(ex, "public → binding")
		return h.Engine.Deliver(ctx, id, PortBindingFromPublic, t.payload)

	case PortBindingToPrivate:
		id, err := h.ensureInstance(ctx, &ex.PrivateID, PrivateProcessName, ex)
		if err != nil {
			return err
		}
		h.emitRoute(ex, "binding → private")
		return h.Engine.Deliver(ctx, id, PortPrivateIn, t.payload)

	case PortPrivateToApp:
		id, err := h.ensureInstance(ctx, &ex.AppID, ex.route.appBinding, ex)
		if err != nil {
			return err
		}
		h.emitRoute(ex, "private → application binding")
		return h.Engine.Deliver(ctx, id, PortAppIn, t.payload)

	case PortAppOut:
		h.emitRoute(ex, "application binding → private")
		return h.Engine.Deliver(ctx, ex.PrivateID, PortPrivateFromApp, t.payload)

	case PortPrivateOut:
		h.emitRoute(ex, "private → binding")
		return h.Engine.Deliver(ctx, ex.BindingID, PortBindingFromPrivate, t.payload)

	case PortBindingToPublic:
		h.emitRoute(ex, "binding → public")
		return h.Engine.Deliver(ctx, ex.PublicID, PortPublicFromBinding, t.payload)

	case PortPublicOut:
		h.mu.Lock()
		ex.Outbound = t.payload
		h.mu.Unlock()
		h.emitRoute(ex, "public → network")
		return nil

	case PortInvAppOut:
		id, err := h.ensureInstance(ctx, &ex.PrivateID, InvoicePrivateProcessName, ex)
		if err != nil {
			return err
		}
		h.emitRoute(ex, "application binding → invoice private process")
		return h.Engine.Deliver(ctx, id, PortInvPrivIn, t.payload)

	case PortInvPrivOut:
		id, err := h.ensureInstance(ctx, &ex.BindingID, ex.route.invBindingName, ex)
		if err != nil {
			return err
		}
		h.emitRoute(ex, "invoice private process → binding")
		return h.Engine.Deliver(ctx, id, PortInvBindIn, t.payload)

	case PortInvBindOut:
		id, err := h.ensureInstance(ctx, &ex.PublicID, ex.route.invPublicName, ex)
		if err != nil {
			return err
		}
		h.emitRoute(ex, "invoice binding → public")
		return h.Engine.Deliver(ctx, id, PortInvPubIn, t.payload)

	case PortPublicSignal:
		h.mu.Lock()
		ex.Signals = append(ex.Signals, t.payload)
		h.mu.Unlock()
		h.emitRoute(ex, "public → network (protocol signal)")
		return nil
	}
	return fmt.Errorf("core: unrouteable port %q", t.port)
}

// ensureInstance starts the named process for the exchange once — at the
// exchange's pinned version — and caches its instance ID.
func (h *Hub) ensureInstance(ctx context.Context, slot *string, typeName string, ex *Exchange) (string, error) {
	if *slot != "" {
		return *slot, nil
	}
	in, err := h.Engine.StartVersion(ctx, typeName, h.pinnedVersion(ex, typeName), h.exchangeData(ex))
	if in != nil {
		*slot = in.ID // a failed start is stored too, and forgotten with the exchange
	}
	if err != nil {
		return "", err
	}
	return in.ID, nil
}

// ExchangeByID returns the record of an exchange the hub started or
// restored from its journal while the ledger keeps it: as long as it runs
// or is parked on the dead-letter set, and after it finished until
// RetentionWindow exchanges finished after it (which Recover also
// restores). Its trace (Trace, Events) is kept exactly as long. An exchange
// that aged out is not found, and neither are its stage instances
// (StageVersions, PrivateInstance) nor its trace.
func (h *Hub) ExchangeByID(id string) (*Exchange, bool) { return h.ledger.lookup(id) }

// PrivateInstance loads the private process instance of an exchange (tests
// inspect approval state through it).
func (h *Hub) PrivateInstance(ex *Exchange) (*wf.Instance, error) {
	if ex.PrivateID == "" {
		return nil, fmt.Errorf("core: exchange %s has no private instance", ex.ID)
	}
	return h.Engine.Instance(ex.PrivateID)
}
