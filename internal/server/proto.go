// Package server is the hub's network front door: a long-lived daemon
// exposing the exchange pipeline over a length-prefixed, versioned TCP wire
// protocol, and the matching client. It is the service shape the paper's
// hub deploys as — trading partners and operators reach one shared
// integration service over the network — and the wire API that multi-node
// federation (ROADMAP item 1) builds on.
//
// Framing: every message is a 4-byte big-endian length followed by one JSON
// Frame. Requests carry a protocol version, a connection-unique ID, an op
// name and an op-specific body; responses echo the ID and carry either a
// body or a typed WireError. Requests on one connection may be served
// concurrently and respond out of order — the ID is the correlator. A
// frame is encoded once: its body value goes straight into a pooled
// buffer together with the envelope, and a frame that is read keeps its
// body as a window of its payload.
package server

import "encoding/json"

// ProtocolVersion is the wire protocol version spoken by this build.
// Compatibility rule: a daemon answers any frame whose version it knows how
// to speak; unknown versions are rejected per-frame with CodeVersion (the
// connection stays usable), so a newer client can downgrade and retry
// without redialing.
const ProtocolVersion = 1

// MaxFrame is the default cap on one frame's payload size.
const MaxFrame = 16 << 20

// Ops of protocol version 1.
const (
	// OpHello is the handshake: the daemon returns its protocol version,
	// name, and capability hints. Clients send it first, but it is not
	// mandatory — every op validates the frame version independently.
	OpHello = "hello"
	// OpSubmit runs one exchange on the hub's sharded scheduler and
	// returns its outcome.
	OpSubmit = "submit"
	// OpStatus returns the hub's unified core.StatusSnapshot.
	OpStatus = "status"
	// OpTrace returns one exchange's record and human-readable trace.
	OpTrace = "trace"
	// OpDLQ lists the dead-letter queue.
	OpDLQ = "dlq"
	// OpResubmit reruns dead-lettered exchanges by ID (or all of them).
	OpResubmit = "resubmit"
	// OpDrain gracefully stops admission for good, waits for in-flight
	// exchanges under a deadline and checkpoints the journal; the DLQ is
	// left as it is.
	OpDrain = "drain"
	// OpForward relays a submit from a cluster node that does not own the
	// target partner to the node that does. The receiver executes it
	// locally (journaling it in its own journal before acking) and answers
	// with a SubmitResponse, which the forwarding node passes on to its
	// caller as it arrived, with the owner's durable exchange ID.
	OpForward = "forward"
	// OpHeartbeat is the cluster liveness probe: peers exchange it on a
	// fixed period, and a run of missed beats marks the peer suspect and
	// then dead (triggering partner reassignment and journal takeover).
	OpHeartbeat = "heartbeat"
	// OpScrub walks the hub's journal read-only and reports every valid
	// record, mid-file corrupt region and torn tail byte, without
	// modifying the file. Fails with CodeNoJournal on journal-less hubs.
	OpScrub = "scrub"
)

// Frame is one wire message in either direction.
type Frame struct {
	// V is the protocol version of this frame.
	V int `json:"v"`
	// ID correlates a response to its request; unique per connection.
	ID uint64 `json:"id"`
	// Op names the operation (requests only).
	Op string `json:"op,omitempty"`
	// Body is the op-specific request or response payload.
	Body json.RawMessage `json:"body,omitempty"`
	// Err is set instead of Body on failed responses.
	Err *WireError `json:"err,omitempty"`
}

// HelloResponse answers OpHello.
type HelloResponse struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Journal reports whether the daemon's hub is journal-backed (drain
	// will checkpoint; a crash is recoverable).
	Journal bool `json:"journal"`
	// Partners lists the registered trading partner IDs.
	Partners []string `json:"partners,omitempty"`
}

// SubmitRequest is the body of OpSubmit: the wire form of a core.Request.
type SubmitRequest struct {
	// Kind is the flow selector ("po", "wire-po", "invoice"); empty infers
	// like core.Request.
	Kind string `json:"kind,omitempty"`
	// PO is the normalized purchase order (kind "po"), as JSON.
	PO json.RawMessage `json:"po,omitempty"`
	// Protocol and Wire are the protocol-native inbound document (kind
	// "wire-po"). Wire is base64 (encoding/json []byte).
	Protocol string `json:"protocol,omitempty"`
	Wire     []byte `json:"wire,omitempty"`
	// PartnerID and POID select the billed order (kind "invoice");
	// PartnerID also hints the shard key for "wire-po".
	PartnerID string `json:"partner,omitempty"`
	POID      string `json:"poid,omitempty"`

	// Async is accepted for compatibility and selects nothing: every
	// submit runs on the sharded scheduler.
	Async bool `json:"async,omitempty"`
	// High selects the high-priority scheduler lane.
	High bool `json:"high,omitempty"`
	// Retry overrides the hub's retry policies for this exchange.
	Retry *RetryOverride `json:"retry,omitempty"`
	// TimeoutMS bounds the exchange's execution (0 = daemon default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RetryOverride is the wire form of core.RetryPolicy (durations in ms).
type RetryOverride struct {
	MaxAttempts         int   `json:"max_attempts,omitempty"`
	BaseBackoffMS       int64 `json:"base_backoff_ms,omitempty"`
	MaxBackoffMS        int64 `json:"max_backoff_ms,omitempty"`
	PerAttemptTimeoutMS int64 `json:"per_attempt_timeout_ms,omitempty"`
}

// SubmitResponse is the body of a successful OpSubmit.
type SubmitResponse struct {
	ExchangeID string `json:"exchange_id,omitempty"`
	Partner    string `json:"partner,omitempty"`
	// POA is the normalized acknowledgment (kind "po"), as JSON.
	POA json.RawMessage `json:"poa,omitempty"`
	// Wire is the outbound wire document (kinds "wire-po", "invoice").
	Wire []byte `json:"wire,omitempty"`
}

// ForwardRequest is the body of OpForward: a SubmitRequest relayed between
// cluster nodes on behalf of the origin's caller.
type ForwardRequest struct {
	// From is the forwarding node's cluster ID.
	From string `json:"from"`
	// Hops counts forwards so a routing disagreement between nodes (e.g.
	// during a takeover window) cannot bounce an exchange forever: a
	// receiver that thinks a third node owns the partner executes locally
	// once Hops reaches the cluster's hop limit.
	Hops int `json:"hops,omitempty"`
	// Submit is the relayed submission, unchanged from the origin.
	Submit SubmitRequest `json:"submit"`
}

// HeartbeatRequest is the body of OpHeartbeat.
type HeartbeatRequest struct {
	// From is the probing node's cluster ID.
	From string `json:"from"`
	// Seq is the probe sequence number (monotonic per sender).
	Seq uint64 `json:"seq"`
}

// HeartbeatResponse answers OpHeartbeat.
type HeartbeatResponse struct {
	// Node is the responder's cluster ID.
	Node string `json:"node"`
	// Seq echoes the probe's sequence number.
	Seq uint64 `json:"seq"`
}

// TraceRequest is the body of OpTrace.
type TraceRequest struct {
	ExchangeID string `json:"exchange_id"`
}

// TraceResponse is the body of a successful OpTrace.
type TraceResponse struct {
	ExchangeID string `json:"exchange_id"`
	Partner    string `json:"partner,omitempty"`
	Flow       string `json:"flow,omitempty"`
	Protocol   string `json:"protocol,omitempty"`
	Backend    string `json:"backend,omitempty"`
	// Trace is the human-readable event trace, one line per event.
	Trace []string `json:"trace,omitempty"`
}

// DLQResponse is the body of a successful OpDLQ.
type DLQResponse struct {
	Entries []DLQEntry `json:"entries"`
}

// DLQEntry is one dead letter on the wire.
type DLQEntry struct {
	ExchangeID string `json:"exchange_id"`
	Partner    string `json:"partner"`
	Flow       string `json:"flow"`
	Protocol   string `json:"protocol"`
	Reason     string `json:"reason"`
	At         string `json:"at"` // RFC 3339
}

// ResubmitRequest is the body of OpResubmit: one exchange by ID, or all.
type ResubmitRequest struct {
	ExchangeID string `json:"exchange_id,omitempty"`
	All        bool   `json:"all,omitempty"`
}

// ResubmitOutcome is one rerun's result inside a ResubmitResponse.
type ResubmitOutcome struct {
	// ExchangeID is the original dead-lettered exchange.
	ExchangeID string `json:"exchange_id"`
	// NewExchangeID is the rerun's exchange, when one was created.
	NewExchangeID string `json:"new_exchange_id,omitempty"`
	// Err reports a failed rerun. One that ran and failed is parked as its
	// new exchange's dead letter (NewExchangeID names it); one the hub
	// refused, or one that failed before its exchange existed, leaves the
	// original entry on the DLQ and NewExchangeID empty.
	Err *WireError `json:"err,omitempty"`
}

// ResubmitResponse is the body of a successful OpResubmit.
type ResubmitResponse struct {
	Outcomes []ResubmitOutcome `json:"outcomes"`
}

// ScrubResponse is the body of a successful OpScrub: one read-only
// full-file walk of the daemon's journal.
type ScrubResponse struct {
	// Path is the journal file the daemon scrubbed.
	Path string `json:"path"`
	// Records is how many valid records the walk yielded.
	Records int `json:"records"`
	// Corrupt is how many mid-file corrupt regions were found.
	Corrupt int `json:"corrupt"`
	// QuarantinedBytes is the total size of those regions (what the
	// journal's next open cuts into the quarantine sidecar).
	QuarantinedBytes int64 `json:"quarantined_bytes"`
	// TornBytes is the size of the trailing bad region, when the file
	// ends in one (a torn tail — truncated on recovery, never
	// quarantined).
	TornBytes int64 `json:"torn_bytes"`
}

// DrainRequest is the body of OpDrain.
type DrainRequest struct {
	// TimeoutMS bounds the wait for in-flight exchanges (0 = daemon
	// default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// DrainResponse is the body of a successful OpDrain.
type DrainResponse struct {
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Shed      int64 `json:"shed"`
	// DeadLettered is the DLQ's depth after the drain, which keeps it.
	DeadLettered int64 `json:"dead_lettered"`
	// Checkpointed reports a successful post-drain journal checkpoint.
	Checkpointed bool `json:"checkpointed,omitempty"`
	// TimedOut reports that the deadline expired first: the shutdown keeps
	// running in the background and counts reflect the deadline instant.
	TimedOut bool `json:"timed_out,omitempty"`
}
