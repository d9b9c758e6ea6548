package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// The forward path: a submit owned by a peer crosses the wire under this
// node's per-peer retry policy and circuit breaker, with the configured
// seeded faults injected in front of every attempt. Transport failures
// retry and feed the breaker; a response that made the round trip — even
// an error response — is the owner's verdict and passes through untouched.
// A successful response's body is relayed as it arrived: the entry node
// answers with the owner's SubmitResponse bytes, without decoding them.

// passThrough reports whether a forward error is the remote pipeline's
// own verdict (the frame made it there and back) rather than a transport
// failure worth retrying. Typed exchange errors and the pipeline sentinels
// pass through; connection loss, dial failures and attempt timeouts do
// not. Two deliberate exclusions: ErrHubStopped, because a draining peer
// is indistinguishable from a dying one and parking locally is the safe
// landing for both; and the bare ErrPeerUnavailable sentinel, because the
// local forward path wraps its own exhaustion in it — a REMOTE park still
// passes through, since ParkRequest always wraps the sentinel in a typed
// *ExchangeError, which the wire round-trips and errors.As matches.
func passThrough(err error) bool {
	var ee *core.ExchangeError
	if errors.As(err, &ee) {
		return true
	}
	for _, sentinel := range []error{
		core.ErrUnknownPartner,
		core.ErrProtocolMismatch,
		core.ErrInvalidRequest,
		core.ErrNoOutbound,
		core.ErrPartnerUnavailable,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// forward relays one submit to owner, retrying transport failures under
// the forward policy and recording every outcome on the owner's breaker.
// It returns the owner's response body, a SubmitResponse in JSON.
func (n *Node) forward(ctx context.Context, owner string, fr server.ForwardRequest) (json.RawMessage, error) {
	p := n.peers[owner]
	if p == nil {
		return nil, fmt.Errorf("%w: unknown peer %q", core.ErrPeerUnavailable, owner)
	}
	pol := n.cfg.Forward
	br := n.breakers.Breaker(owner)
	partner := fr.Submit.PartnerKey()
	var lastErr error
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		probe, admitted := br.Allow()
		if !admitted {
			lastErr = fmt.Errorf("cluster: peer %s circuit open", owner)
			break // the breaker will half-open on its own schedule
		}
		resp, err := n.attemptForward(ctx, p, fr, pol.PerAttemptTimeout)
		delivered := err == nil || passThrough(err)
		if probe {
			br.RecordProbe(!delivered)
		} else {
			br.Record(!delivered)
		}
		if delivered {
			n.forwarded.Add(1)
			n.bus.Emit(obs.Event{
				Partner: partner,
				Kind:    obs.KindCluster, Stage: obs.StageCluster, Step: obs.StepForwarded,
				Err: err,
			})
			return resp, err
		}
		lastErr = err
		if attempt == pol.MaxAttempts {
			break
		}
		n.forwardRetries.Add(1)
		n.bus.Emit(obs.Event{
			Partner: partner,
			Kind:    obs.KindCluster, Stage: obs.StageCluster, Step: obs.StepForwardRetry,
			Err: fmt.Errorf("forward to %s attempt %d: %w", owner, attempt, err),
		})
		if backoff := pol.BackoffFor(attempt); backoff > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				n.forwardFailed.Add(1)
				return nil, fmt.Errorf("%w: forward to %s: %v", core.ErrPeerUnavailable, owner, ctx.Err())
			}
		}
	}
	n.forwardFailed.Add(1)
	return nil, fmt.Errorf("%w: forward to %s: %v", core.ErrPeerUnavailable, owner, lastErr)
}

// attemptForward is one wire attempt: inject the seeded faults, get (or
// dial) the peer client, call OpForward under the per-attempt timeout.
func (n *Node) attemptForward(ctx context.Context, p *peer, fr server.ForwardRequest, timeout time.Duration) (json.RawMessage, error) {
	if err := n.injectFault(); err != nil {
		return nil, err
	}
	c, err := p.getClient(ctx, timeout)
	if err != nil {
		return nil, err
	}
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return c.Forward(actx, fr)
}

// injectFault applies the configured fault model to one attempt, the
// msg.Faults semantics transplanted onto the forward path: loss first
// (a seeded synthetic transport error), then fixed latency plus uniform
// jitter.
func (n *Node) injectFault() error {
	f := n.cfg.Faults
	if f.LossProb <= 0 && f.Latency <= 0 && f.Jitter <= 0 {
		return nil
	}
	var lost bool
	var delay time.Duration
	n.faultMu.Lock()
	if f.LossProb > 0 && n.rng.Float64() < f.LossProb {
		lost = true
	} else {
		delay = f.Latency
		if f.Jitter > 0 {
			delay += time.Duration(n.rng.Int63n(int64(f.Jitter)))
		}
	}
	n.faultMu.Unlock()
	if lost {
		return errors.New("cluster: injected forward loss (seeded fault)")
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// getClient returns the peer's wire client, dialing on first use (bounded
// by dialTimeout). The client reconnects in the background after a drop
// and fails calls fast while disconnected, so a down peer costs a forward
// attempt an error, not a hang.
func (p *peer) getClient(ctx context.Context, dialTimeout time.Duration) (*server.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.client != nil {
		return p.client, nil
	}
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	c, err := server.Dial(dctx, p.addr, server.WithReconnect(server.DefaultReconnect))
	if err != nil {
		return nil, err
	}
	p.client = c
	return c, nil
}
