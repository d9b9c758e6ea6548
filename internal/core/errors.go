package core

import (
	"errors"
	"fmt"

	"repro/internal/obs"
)

// Sentinel errors of the hub's package boundary, matchable with errors.Is.
var (
	// ErrHubStopped is returned for submissions against a drained hub.
	// It never resolves a future: a job the scheduler enqueued always runs.
	ErrHubStopped = errors.New("core: hub scheduler stopped")
	// ErrUnknownPartner is returned for documents from unregistered
	// trading partners.
	ErrUnknownPartner = errors.New("core: unknown trading partner")
	// ErrProtocolMismatch is returned when an inbound document arrives in a
	// protocol other than the one its partner is registered for.
	ErrProtocolMismatch = errors.New("core: partner protocol mismatch")
	// ErrInvalidRequest is returned by Do/DoAsync for requests missing the
	// fields their Kind demands.
	ErrInvalidRequest = errors.New("core: invalid request")
	// ErrNoOutbound is returned when an exchange's chain completes without
	// producing an outbound document.
	ErrNoOutbound = errors.New("core: exchange produced no outbound document")
	// ErrPartnerUnavailable is returned when the partner's circuit breaker
	// rejects an exchange at admission: the circuit is open (fast-fail) or
	// the adaptive shedder dropped the submission under queue pressure.
	// Rejected exchanges are parked on the dead-letter queue and become
	// eligible for Resubmit once the circuit closes.
	ErrPartnerUnavailable = errors.New("core: partner unavailable")
	// ErrPeerUnavailable is returned when a federated exchange could not be
	// forwarded to the cluster node owning its partner: every forward
	// attempt was exhausted or the peer's circuit breaker is open. The
	// exchange is parked on the local dead-letter queue and becomes
	// eligible for Resubmit once the peer recovers (or ownership moves).
	ErrPeerUnavailable = errors.New("core: peer node unavailable")
	// ErrJournalUnavailable is returned under the fail-stop durability
	// policy (the default) for admissions whose journal append failed: a
	// hub asked to be durable rejects work it cannot log. Resubmitting
	// after the disk heals succeeds; WithJournalFailurePolicy(FailDegraded)
	// trades the rejection for non-durable admission instead.
	ErrJournalUnavailable = errors.New("core: journal unavailable")
	// ErrNotDeadLettered is returned by Resubmit for an exchange ID the
	// dead-letter queue does not hold: never dead-lettered, already rerun,
	// or taken by a concurrent Resubmit.
	ErrNotDeadLettered = errors.New("core: exchange not on the dead-letter queue")
)

// ExchangeError is the typed pipeline error of the hub boundary: it locates
// a failure in the pipeline (stage), attributes it to a trading partner and
// exchange, and wraps the cause so errors.Is/As see through it.
type ExchangeError struct {
	// ExchangeID names the failed exchange ("" when the failure precedes
	// exchange creation, e.g. an unknown partner).
	ExchangeID string
	// Partner is the trading partner of the exchange, when known.
	Partner string
	// Stage locates the failure in the pipeline. Failures between stages
	// (decode, admission, partner resolution) report obs.StageExchange.
	Stage obs.Stage
	// Port is the routing port being served when the failure occurred ("",
	// when the failure was not a routing hop).
	Port string
	// Attempt is the delivery attempt of the exchange: 1 for the original
	// submission, 2 for a dead-letter resubmission.
	Attempt int
	// Err is the wrapped cause.
	Err error
}

// Error implements error.
func (e *ExchangeError) Error() string {
	msg := "core: exchange"
	if e.ExchangeID != "" {
		msg += " " + e.ExchangeID
	}
	if e.Partner != "" {
		msg += " (partner " + e.Partner + ")"
	}
	if e.Stage != "" && e.Stage != obs.StageExchange {
		msg += fmt.Sprintf(" stage %s", e.Stage)
	}
	if e.Port != "" {
		msg += fmt.Sprintf(", port %s", e.Port)
	}
	return msg + ": " + e.Err.Error()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ExchangeError) Unwrap() error { return e.Err }

// wrapExchangeErr wraps err as an *ExchangeError for the exchange unless it
// already is one (the innermost wrap, closest to the failing stage, wins).
func wrapExchangeErr(ex *Exchange, stage obs.Stage, port string, err error) error {
	if err == nil {
		return nil
	}
	var ee *ExchangeError
	if errors.As(err, &ee) {
		return err
	}
	e := &ExchangeError{Stage: stage, Port: port, Attempt: 1, Err: err}
	if ex != nil {
		e.ExchangeID = ex.ID
		e.Partner = ex.Partner.ID
		if ex.resubmit {
			e.Attempt = 2
		}
	}
	return e
}

// stageForPort maps a routing port to the pipeline stage receiving the
// delivery, so routing failures report where they landed.
func stageForPort(port string) obs.Stage {
	switch port {
	case PortPublicToBinding, PortPrivateOut, PortInvPrivOut:
		return obs.StageBinding
	case PortBindingToPrivate, PortAppOut, PortInvAppOut:
		return obs.StagePrivate
	case PortPrivateToApp:
		return obs.StageApp
	case PortBindingToPublic, PortInvBindOut, PortPublicOut, PortPublicSignal:
		return obs.StagePublic
	}
	return obs.StageRoute
}
