package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/formats"
	"repro/internal/obs"
	"repro/internal/wf"
)

// The reliability layer: endpoint failure is a binding-local concern
// (Section 4) — a flaky back end or partner endpoint is absorbed by retry
// policies attached to bindings, and exchanges that exhaust their policy
// are parked on the hub's dead-letter queue instead of being lost. The
// public and private process definitions are untouched, exactly as the
// paper's architecture demands.

// RetryPolicy bounds how a binding retries a failing step: up to
// MaxAttempts total attempts, sleeping BaseBackoff·2^(attempt-1) (capped at
// MaxBackoff) between them, with each attempt's backend work bounded by
// PerAttemptTimeout carved out of the exchange's own context.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget (minimum 1; 0 behaves as 1).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff; 0 retries immediately.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means uncapped.
	MaxBackoff time.Duration
	// PerAttemptTimeout bounds each application-binding attempt; 0 leaves
	// attempts bounded only by the exchange's context.
	PerAttemptTimeout time.Duration
}

// BackoffFor returns the pause after the attempt-th failed attempt
// (1-based): BaseBackoff doubled per failure, capped at MaxBackoff.
func (p RetryPolicy) BackoffFor(attempt int) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	b := p.BaseBackoff
	for i := 1; i < attempt; i++ {
		b *= 2
		if p.MaxBackoff > 0 && b >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && b > p.MaxBackoff {
		return p.MaxBackoff
	}
	return b
}

// attempts returns the effective attempt budget, folding in the step's own
// Retries declaration (the engine-level budget that predates policies).
func (p RetryPolicy) attempts(s *wf.StepDef) int {
	n := p.MaxAttempts
	if n < 1 {
		n = 1
	}
	if s != nil && s.Retries+1 > n {
		n = s.Retries + 1
	}
	return n
}

// SetRetryPolicy attaches a retry policy to a binding scope: a backend name
// ("SAP") covers that application binding's steps, a protocol name
// (string(formats.EDI)) covers that protocol binding's and public
// process's steps.
func (h *Hub) SetRetryPolicy(scope string, p RetryPolicy) {
	h.retryMu.Lock()
	defer h.retryMu.Unlock()
	if h.retryPolicies == nil {
		h.retryPolicies = map[string]RetryPolicy{}
	}
	h.retryPolicies[scope] = p
}

// SetDefaultRetryPolicy sets the policy used by scopes without their own.
func (h *Hub) SetDefaultRetryPolicy(p RetryPolicy) {
	h.retryMu.Lock()
	defer h.retryMu.Unlock()
	h.defaultRetry = p
}

// policyForScopes resolves the first configured scope, else the default.
func (h *Hub) policyForScopes(scopes ...string) RetryPolicy {
	h.retryMu.RLock()
	defer h.retryMu.RUnlock()
	for _, sc := range scopes {
		if sc == "" {
			continue
		}
		if p, ok := h.retryPolicies[sc]; ok {
			return p
		}
	}
	return h.defaultRetry
}

// overrideFor returns the per-call retry override (Request.Retry) of the
// exchange ctx carries, if one was submitted with it.
func overrideFor(ctx context.Context) *RetryPolicy {
	if ex := exchangeFrom(ctx); ex != nil {
		return ex.retry
	}
	return nil
}

// policyFor resolves the retry policy governing one step of an exchange:
// the per-call override wins, then application-binding steps resolve by
// backend name first and everything else by protocol first.
func (h *Hub) policyFor(ctx context.Context, in *wf.Instance) RetryPolicy {
	if p := overrideFor(ctx); p != nil {
		return *p
	}
	target, _ := in.Data["target"].(string)
	protocol, _ := in.Data["protocol"].(string)
	if stageOf(in.Type) == obs.StageApp {
		return h.policyForScopes(target, protocol)
	}
	return h.policyForScopes(protocol, target)
}

// retryDecider is the hub's wf.RetryDecider: transient failures are retried
// within the binding's policy, with exponential backoff, and every retried
// attempt and backoff pause is emitted as a typed event so retries show up
// in the per-stage histograms and exchange traces.
func (h *Hub) retryDecider(ctx context.Context, in *wf.Instance, s *wf.StepDef, attempt int, err error) (bool, time.Duration) {
	pol := h.policyFor(ctx, in)
	if attempt >= pol.attempts(s) || !retryable(err) || ctx.Err() != nil {
		return false, 0
	}
	backoff := pol.BackoffFor(attempt)
	exID, _ := in.Data["exchange"].(string)
	partner, _ := in.Data["source"].(string)
	stage := stageOf(in.Type)
	h.bus.Emit(obs.Event{
		ExchangeID: exID, Partner: partner,
		Kind: obs.KindRetry, Stage: stage, Step: obs.StepAttempt,
		Err: fmt.Errorf("%s attempt %d: %w", s.Name, attempt, err),
	})
	if backoff > 0 {
		h.bus.Emit(obs.Event{
			ExchangeID: exID, Partner: partner,
			Kind: obs.KindRetry, Stage: stage, Step: obs.StepBackoff,
			Elapsed: backoff,
		})
	}
	return true, backoff
}

// retryable reports whether a step failure is worth repeating against the
// same endpoint: injected/transient backend faults and per-attempt
// timeouts are; semantic failures (validation, duplicates, rule errors)
// are not.
func retryable(err error) bool {
	return backend.IsTransient(err)
}

// withAttemptTimeout wraps an application-binding handler so each attempt
// runs under the backend's PerAttemptTimeout (when configured) carved out
// of the exchange's context — a hung backend call unsticks at the attempt
// boundary instead of stalling the exchange until its overall deadline.
func (h *Hub) withAttemptTimeout(bName string, fn wf.Handler) wf.Handler {
	return func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		pol := h.policyForScopes(bName)
		if p := overrideFor(ctx); p != nil {
			pol = *p
		}
		if pol.PerAttemptTimeout <= 0 {
			return fn(ctx, in, s)
		}
		actx, cancel := context.WithTimeout(ctx, pol.PerAttemptTimeout)
		defer cancel()
		return fn(actx, in, s)
	}
}

// WrapBackends replaces every deployed backend system with wrap(system) —
// the seam fault-injection harnesses use to decorate backends without the
// hub knowing (chaos tests wrap with backend.NewFaulty).
func (h *Hub) WrapBackends(wrap func(backend.System) backend.System) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for name, sys := range h.Systems {
		h.Systems[name] = wrap(sys)
	}
}

// DeadLetter is one exchange parked on the hub's dead-letter queue after
// exhausting its retry policy (or being rejected at admission). The
// exchange's Request is retained so the exchange can be resubmitted once
// the endpoint heals.
type DeadLetter struct {
	ExchangeID string
	Partner    string
	Flow       obs.Flow
	Protocol   formats.Format
	// Reason is the terminal pipeline error.
	Reason error
	// At is when the exchange was dead-lettered.
	At time.Time

	// req is the submission Resubmit reruns: the failed exchange's own
	// Request, or the one restored from the journal.
	req *Request
}

// rerunRequest is the request a failed pipeline exchange is parked with:
// the submission itself with resubmit set — the failed run may have stored
// the order before a downstream step failed, so the rerun tolerates the
// backend's duplicate-order rejection — and, when the submitter gave no
// partner hint, the partner decoded from the document, so a DocWirePO
// rerun is health-gated and sharded by partner like a DocPO one.
func rerunRequest(req Request, ex *Exchange) Request {
	req.resubmit = true
	if req.PartnerID == "" {
		req.PartnerID = ex.Partner.ID
	}
	return req
}

// deadLetter parks a failed exchange on the queue with the request
// Resubmit reruns (the ledger's park, which journals it first) and emits
// the dead-letter lifecycle event. Pipeline failures park their
// rerunRequest; requests rejected at admission (fast-fail, shed,
// unreachable owner peer) are parked as submitted: they never touched the
// pipeline or a backend, so a rerun has no duplicate risk.
func (h *Hub) deadLetter(ex *Exchange, reason error, req Request) {
	evs, a := h.ledger.park(ex, reason, req)
	h.emit(evs)
	h.forget(a)
	h.emitLifecycle(ex, obs.StepDeadLetter, 0, reason)
}

// emit puts events a ledger transition returned on the bus.
func (h *Hub) emit(evs []obs.Event) {
	for _, ev := range evs {
		h.bus.Emit(ev)
	}
}

// forget deletes the stage instances of the exchanges a ledger transition
// aged out of the retention window, with their subworkflow children, from
// the engine's workflow database.
func (h *Hub) forget(a aged) {
	for _, ex := range a {
		if ex == nil {
			continue
		}
		for _, id := range [...]string{ex.PublicID, ex.BindingID, ex.PrivateID, ex.AppID} {
			if id != "" {
				_ = h.Engine.Forget(id)
			}
		}
	}
}

// park ends a request the hub decided not to run — an open circuit, the
// shedder, an unreachable owner peer, a poisoned or refused replay. The
// request's partner gets an exchange record that starts and fails with
// cause, the request is dead-lettered as submitted (replayable via
// Resubmit) with its outcome journaled under its admission key (req.key,
// "" for none), and an event of the given kind/stage/step explains the
// rejection. A wire PO with no partner hint names its partner only once
// decoded, so it is parked under its protocol with an empty partner; a
// request naming a partner the model does not know fails with
// ErrUnknownPartner instead.
func (h *Hub) park(req Request, cause error, kind obs.Kind, stage obs.Stage, step string) Result {
	partner := req.healthKey()
	snap := h.snap.Load()
	route, ok := snap.Model.routes[partner]
	switch {
	case ok:
	case partner == "" && req.Kind == DocWirePO:
		route = &resolvedRoute{partner: TradingPartner{Protocol: req.Protocol}}
	default:
		res := Result{Err: fmt.Errorf("%w: %q", ErrUnknownPartner, partner)}
		h.ledger.fail(req.key, nil, res.Err)
		return res
	}
	flow := obs.FlowPO
	if req.Kind == DocInvoice {
		flow = obs.FlowInvoice
	}
	ex := h.newExchange(snap, route, flow, &req, "")
	err := wrapExchangeErr(ex, obs.StageExchange, "", cause)
	h.emitLifecycle(ex, obs.StepStarted, 0, nil)
	h.emitLifecycle(ex, obs.StepFailed, 0, err)
	h.deadLetter(ex, err, req)
	h.bus.Emit(obs.Event{
		ExchangeID: ex.ID, Partner: partner, Flow: flow,
		Kind: kind, Stage: stage, Step: step, Err: err,
	})
	return Result{Exchange: ex, Err: err}
}

// DeadLetters returns a snapshot of the dead-letter queue, in the order the
// entries were parked.
func (h *Hub) DeadLetters() []DeadLetter { return h.ledger.deadLetters() }

// Resubmit reruns the dead-lettered exchange exchangeID from its retained
// Request as a fresh exchange; it is the dead-letter queue's one exit. The
// rerun is the same scheduler job as every other admission: it is
// health-gated (an open circuit fast-fails it with ErrPartnerUnavailable and
// parks it again) and its outcome feeds the partner's breaker.
// Resubmissions of pipeline failures tolerate the duplicate-order rejection
// of the back end (the paper's Section 1 duplicate elimination): when the
// dead-lettered run already stored the order, the store step is satisfied
// by the existing copy instead of double-mutating the backend. A DocWirePO
// entry keeps the caller's Wire slice rather than a copy, so a submitter
// must not modify it afterwards.
//
// Resubmit takes the entry off the queue, so of concurrent calls for one
// ID only one reruns it; the others, like an ID the queue does not hold,
// get ErrNotDeadLettered. An entry that retains no request stays queued.
// Otherwise Resubmit returns when the rerun has finished (ctx bounds the
// rerun itself) or the scheduler has refused it (the hub is drained, or
// ctx ended while it waited for room). A successful rerun resolves the
// entry; a rerun that fails and parks a dead letter of its own replaces
// it; any other failure — a refusal, or one before the rerun's exchange
// existed, such as a partner that left the model — puts the entry back in
// its place, so the queue keeps what the journal keeps.
func (h *Hub) Resubmit(ctx context.Context, exchangeID string) (*Exchange, error) {
	e, err := h.ledger.take(exchangeID)
	if err != nil {
		return nil, err
	}
	req := *e.dl.req
	req.taken = e
	var res Result
	if fut, err := h.doAsync(ctx, req); err != nil {
		res.Err = err
	} else {
		<-fut.Done()
		res = fut.res
	}
	h.forget(h.ledger.rerun(e, res.Err))
	return res.Exchange, res.Err
}

// tolerateDuplicate converts the backend's duplicate-order rejection into
// success for resubmitted exchanges.
func tolerateDuplicate(in *wf.Instance, err error) error {
	if resub, _ := in.Data["resubmit"].(bool); resub && errors.Is(err, backend.ErrDuplicateOrder) {
		return nil
	}
	return err
}
