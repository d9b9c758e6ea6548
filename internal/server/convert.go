package server

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
)

// Conversions between the wire submit shape and the hub's Request. They
// live on the wire type so every layer that accepts a SubmitRequest — the
// daemon's built-in submit handler, the cluster node's routing override —
// decodes it identically.

// PartnerKey returns the trading-partner routing key of the request: the
// explicit PartnerID, or the buyer ID of an embedded purchase order. It is
// "" for a wire document with no partner hint (the partner is only known
// after protocol decode) — callers routing by partner must decide who owns
// unattributable work.
func (sr *SubmitRequest) PartnerKey() string {
	if sr.PartnerID != "" {
		return sr.PartnerID
	}
	if len(sr.PO) > 0 {
		var po struct {
			Buyer struct {
				ID string `json:"id"`
			} `json:"buyer"`
		}
		if json.Unmarshal(sr.PO, &po) == nil {
			return po.Buyer.ID
		}
	}
	return ""
}

// CoreRequest converts the wire request into the hub's Request. TimeoutMS
// is a transport concern and stays with the caller; Async selects nothing.
func (sr *SubmitRequest) CoreRequest() (core.Request, error) {
	req := core.Request{
		Kind:      core.DocKind(sr.Kind),
		Protocol:  formats.Format(sr.Protocol),
		Wire:      sr.Wire,
		PartnerID: sr.PartnerID,
		POID:      sr.POID,
	}
	if len(sr.PO) > 0 {
		po := &doc.PurchaseOrder{}
		if err := json.Unmarshal(sr.PO, po); err != nil {
			return core.Request{}, fmt.Errorf("server: decode po: %w", err)
		}
		req.PO = po
	}
	if sr.High {
		req.Priority = core.PriorityHigh
	}
	if r := sr.Retry; r != nil {
		req.Retry = &core.RetryPolicy{
			MaxAttempts:       r.MaxAttempts,
			BaseBackoff:       time.Duration(r.BaseBackoffMS) * time.Millisecond,
			MaxBackoff:        time.Duration(r.MaxBackoffMS) * time.Millisecond,
			PerAttemptTimeout: time.Duration(r.PerAttemptTimeoutMS) * time.Millisecond,
		}
	}
	return req, nil
}
