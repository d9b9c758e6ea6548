package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/health"
	"repro/internal/obs"
)

// Partner health integration: the hub consults the partner's circuit
// breaker (internal/health) at admission, before a submission can occupy
// a scheduler slot or a worker. Exchanges for an open partner fast-fail
// with ErrPartnerUnavailable and are parked on the dead-letter queue with
// their original Request retained, so a heal + Resubmit replays them
// exactly once. Half-open partners admit a bounded number of probe
// exchanges whose real outcomes close or re-open the circuit — there is
// no separate probe traffic and no background goroutine.

// Health exposes the hub's partner health tracker (nil when the hub was
// built without WithHealth).
func (h *Hub) Health() *health.Tracker { return h.health }

// breakerStep maps the state a breaker transitioned into onto its
// KindHealth event step.
func breakerStep(to health.State) string {
	switch to {
	case health.StateOpen:
		return obs.StepBreakerOpen
	case health.StateHalfOpen:
		return obs.StepBreakerHalfOpen
	default:
		return obs.StepBreakerClosed
	}
}

// healthKey names the trading partner a request is bound for, when the
// request carries it ahead of decoding ("" otherwise — such requests are
// not health-gated because their partner is unknown until the pipeline
// decodes them).
func (r *Request) healthKey() string {
	switch r.Kind {
	case DocPO:
		if r.PO != nil {
			return r.PO.Buyer.ID
		}
	case DocInvoice:
		return r.PartnerID
	case DocWirePO:
		return r.PartnerID
	}
	return ""
}

// healthGate consults the partner's circuit breaker at admission. It
// returns the breaker key ("" when health is not consulted), whether the
// admitted exchange is a half-open probe, and — when the circuit rejects
// the exchange — the fast-fail result, already parked under the admission
// key: an exchange record failed with ErrPartnerUnavailable, the request
// retained on the dead-letter queue for Resubmit, and a KindHealth
// fast-fail event attributing the rejection to the breaker.
func (h *Hub) healthGate(req Request) (partner string, probe bool, rejected *Result) {
	if h.health == nil {
		return "", false, nil
	}
	partner = req.healthKey()
	if partner == "" {
		return "", false, nil
	}
	if _, ok := h.snap.Load().Model.routes[partner]; !ok {
		// Unknown partner: let the pipeline fail with ErrUnknownPartner
		// instead of growing a breaker for a partner that does not exist.
		return "", false, nil
	}
	probe, admitted := h.health.Breaker(partner).Allow()
	if admitted {
		return partner, probe, nil
	}
	cause := fmt.Errorf("%w: circuit %s", ErrPartnerUnavailable, h.health.StateOf(partner))
	res := h.park(req, cause, obs.KindHealth, obs.StageHealth, obs.StepFastFail)
	return partner, false, &res
}

// runTracked executes a request and feeds its outcome to the partner's
// breaker: probe outcomes close or re-open a half-open circuit, normal
// outcomes drive the sliding failure window. Only outcomes attributable
// to the endpoint are recorded — a cancellation or deadline expiry of the
// submission's own context is the caller's doing, and a pipeline failure
// (malformed document, protocol mismatch, codec error) says nothing about
// the partner's availability; such outcomes release a probe's slot
// without a verdict so the half-open circuit can admit a fresh probe.
func (h *Hub) runTracked(ctx context.Context, req Request, partner string, probe bool) Result {
	res := h.run(ctx, req)
	if h.health == nil || partner == "" {
		return res
	}
	br := h.health.Breaker(partner)
	if probe {
		var exID string
		if res.Exchange != nil {
			exID = res.Exchange.ID
		}
		h.bus.Emit(obs.Event{
			ExchangeID: exID,
			Partner:    partner,
			Kind:       obs.KindHealth,
			Stage:      obs.StageHealth,
			Step:       obs.StepProbe,
			Err:        res.Err,
		})
	}
	switch {
	case res.Err == nil:
		if probe {
			br.RecordProbe(false)
		} else {
			br.Record(false)
		}
	case ctx.Err() != nil || errors.Is(res.Err, context.Canceled):
		// The submission's own context was cancelled or expired: the
		// caller's doing, not the endpoint's. No verdict.
		if probe {
			br.ReleaseProbe()
		}
	case !endpointFailure(res.Err):
		// Pipeline/document failure: one client repeatedly submitting a
		// malformed document must not open a healthy partner's circuit.
		if probe {
			br.ReleaseProbe()
		}
	case res.Exchange != nil && res.Exchange.canaryArm:
		// The exchange rode a canary candidate: its failure indicts the
		// candidate configuration, which the canary comparison handles
		// (rollback), not the partner's endpoint. Feeding it to the breaker
		// would open the circuit and take down the incumbent's traffic too.
		if probe {
			br.ReleaseProbe()
		}
	default:
		if probe {
			br.RecordProbe(true)
		} else {
			br.Record(true)
		}
	}
	return res
}

// endpointFailure reports whether an exchange error is attributable to
// the partner's endpoint — a failure of a delivery/step stage of the
// pipeline (a backend fault, a hung or refusing endpoint, a per-attempt
// timeout) — rather than to the document or the hub itself. Decode and
// normalization errors, admission sentinels and "no outbound produced"
// never carry a step stage, so they do not feed the breaker.
func endpointFailure(err error) bool {
	var ee *ExchangeError
	if !errors.As(err, &ee) {
		// Raw errors (decode, codec lookup, normalization) precede any
		// pipeline step and are never the endpoint's fault.
		return false
	}
	switch ee.Stage {
	case obs.StagePublic, obs.StageBinding, obs.StagePrivate, obs.StageApp:
		return true
	}
	return false
}

// releaseProbe frees a half-open probe slot admitted by healthGate when
// the admitted exchange will never run and report an outcome (the
// scheduler refused it).
func (h *Hub) releaseProbe(partner string, probe bool) {
	if !probe || h.health == nil || partner == "" {
		return
	}
	h.health.Breaker(partner).ReleaseProbe()
}

// healthDegraded reports whether the adaptive shedder should drop
// normal-priority work for the scheduler key (a trading partner) under
// queue pressure.
func (h *Hub) healthDegraded(key string) bool {
	return h.health != nil && h.health.Breaker(key).Degraded()
}
