package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cfgstore"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/journal"
	"repro/internal/obs"
)

// The durability layer: a hub built WithJournal write-ahead-logs its
// exchange lifecycle (see internal/journal for the file format). The
// protocol is three record kinds plus a compaction checkpoint:
//
//   - "admit": one record per admitted Request, appended in Do/DoAsync
//     before the health gate or the scheduler sees the submission. The
//     payload is the request itself, so a crashed hub can re-run it.
//   - "complete": the terminal outcome of an admitted request, keyed by
//     its admission key. Dead-letter outcomes carry a replayable copy of
//     the request so the queue entry survives a restart; "aborted" marks
//     submissions the scheduler refused, which have nothing to recover.
//   - "resolve": a dead letter left the queue for good (a successful
//     Resubmit), keyed by its exchange ID.
//   - "checkpoint": compaction high-water marks (exchange and admission
//     sequence floors), so IDs are never reused after records that carried
//     them are compacted away.
//
// An admit without a complete is an unfinished admission: Recover re-runs
// it with resubmit tolerance, keyed by exchange identity end to end — when
// the crash hit between "executed" and "journaled-complete", the re-run's
// store step is satisfied by the backend's existing copy (duplicate
// elimination) and anything genuinely unrecoverable re-delivers at most
// once into the dead-letter queue instead of double-executing.

// Journal record kinds.
const (
	recAdmit      = "admit"
	recComplete   = "complete"
	recResolve    = "resolve"
	recCheckpoint = "checkpoint"
	// recConfig is one runtime configuration change (register, stage or
	// activate of an artifact version); replaying the config records restores
	// the exact pre-crash config epoch and active-version set.
	recConfig = "config"
	// recReplay marks one recovery replay attempt of a pending admission
	// (keyed like the admit). Appended before the replay runs, so an
	// admission that crashes the hub during its own replay accumulates
	// attempt records; at poisonThreshold the replay is skipped and the
	// admission parks on the dead-letter queue instead of crash-looping
	// recovery forever.
	recReplay = "replay"
)

// poisonThreshold is how many journaled replay attempts an admission may
// accumulate before Recover stops re-running it and parks it as poisoned.
const poisonThreshold = 3

// Config record actions.
const (
	cfgActionRegister = "register"
	cfgActionStage    = "stage"
	cfgActionActivate = "activate"
)

// journalConfig is the payload of a config record.
type journalConfig struct {
	Epoch   int64  `json:"epoch"`
	Action  string `json:"action"`
	Class   string `json:"class"`
	Name    string `json:"name"`
	Version int    `json:"version"`
	Note    string `json:"note,omitempty"`
}

// decodeConfigRecord parses and validates one config record payload. It is
// the fuzzed decoding surface: arbitrary payloads must either yield a
// well-formed change or an error, never a malformed apply.
func decodeConfigRecord(payload []byte) (journalConfig, error) {
	var jc journalConfig
	if err := json.Unmarshal(payload, &jc); err != nil {
		return journalConfig{}, fmt.Errorf("core: config record: %w", err)
	}
	switch jc.Action {
	case cfgActionRegister, cfgActionStage, cfgActionActivate:
	default:
		return journalConfig{}, fmt.Errorf("core: config record: unknown action %q", jc.Action)
	}
	if jc.Class == "" || jc.Name == "" {
		return journalConfig{}, fmt.Errorf("core: config record: missing artifact key")
	}
	if jc.Version <= 0 {
		return journalConfig{}, fmt.Errorf("core: config record: version %d must be positive", jc.Version)
	}
	if jc.Epoch < 0 {
		return journalConfig{}, fmt.Errorf("core: config record: epoch %d must be non-negative", jc.Epoch)
	}
	return jc, nil
}

// applyConfigRecord replays one config record into the hub's config store.
// Undecodable or unreplayable records are skipped: a torn or corrupt tail
// must not block recovery of the rest of the journal.
func (h *Hub) applyConfigRecord(payload []byte) {
	jc, err := decodeConfigRecord(payload)
	if err != nil {
		return
	}
	activate := jc.Action != cfgActionStage
	_ = h.cfg.Restore(cfgstore.Class(jc.Class), jc.Name, jc.Version, jc.Epoch, activate, jc.Note)
}

// journalConfigChange write-ahead-logs one config change. Append errors are
// swallowed: the change is already applied in memory and a lost record only
// costs epoch exactness after a crash, never correctness of live routing.
func (h *Hub) journalConfigChange(jc journalConfig) {
	if h.jrn == nil || h.journalDown() {
		// Degraded: the config store itself holds the state and the re-arm
		// compaction snapshots it (configLiveRecords), so the skipped
		// record costs nothing once the disk heals.
		return
	}
	payload, err := json.Marshal(jc)
	if err != nil {
		return
	}
	h.jrnMu.Lock()
	_ = h.jrn.Append(journal.Record{Kind: recConfig, Payload: payload})
	h.jrnMu.Unlock()
}

// configLiveRecords exports the config store's current state as replayable
// records for compaction: per-artifact registration records carrying their
// original epochs (staged, so replay does not move pointers prematurely)
// followed by an activation record per artifact carrying the current epoch,
// so replay lands on the exact live epoch and active-version set.
func (h *Hub) configLiveRecords() []journal.Record {
	var out []journal.Record
	epoch := h.cfg.Epoch()
	appendRec := func(jc journalConfig) {
		if payload, err := json.Marshal(jc); err == nil {
			out = append(out, journal.Record{Kind: recConfig, Payload: payload})
		}
	}
	for _, k := range h.cfg.Keys() {
		for _, v := range h.cfg.History(k.Class, k.Name) {
			appendRec(journalConfig{Epoch: v.Epoch, Action: cfgActionStage, Class: string(k.Class), Name: k.Name, Version: v.Version, Note: v.Note})
		}
		if active, ok := h.cfg.Active(k.Class, k.Name); ok && active > 0 {
			appendRec(journalConfig{Epoch: epoch, Action: cfgActionActivate, Class: string(k.Class), Name: k.Name, Version: active, Note: "checkpoint"})
		}
	}
	return out
}

// Terminal outcomes of a complete record.
const (
	outcomeCompleted  = "completed"
	outcomeDeadLetter = "dead-letter"
	outcomeFailed     = "failed"
	outcomeAborted    = "aborted"
)

// ErrNoJournal is returned by journal-only operations on a hub built
// without WithJournal.
var ErrNoJournal = errors.New("core: hub has no journal")

// journalRequest is the serialized form of a Request in admit records and
// dead-letter complete records.
type journalRequest struct {
	Kind      DocKind            `json:"kind"`
	PO        *doc.PurchaseOrder `json:"po,omitempty"`
	Protocol  formats.Format     `json:"protocol,omitempty"`
	Wire      []byte             `json:"wire,omitempty"`
	PartnerID string             `json:"partner,omitempty"`
	POID      string             `json:"poid,omitempty"`
	Priority  Priority           `json:"priority,omitempty"`
	Retry     *RetryPolicy       `json:"retry,omitempty"`
}

func toJournalRequest(r *Request) *journalRequest {
	return &journalRequest{
		Kind:      r.Kind,
		PO:        r.PO,
		Protocol:  r.Protocol,
		Wire:      r.Wire,
		PartnerID: r.PartnerID,
		POID:      r.POID,
		Priority:  r.Priority,
		Retry:     r.Retry,
	}
}

// toRequest rebuilds the submission for a recovery replay: journaled
// requests were admitted through the journal, and replays tolerate the
// backend's duplicate-order rejection because the original run may have
// executed before the crash. The journaled mark holds for the hub's own
// journal; replay clears it on a dead peer's entries until this hub's
// journal holds them, or a capped queue could spill a parked copy into a
// journal that never logged it.
func (jr *journalRequest) toRequest() Request {
	return Request{
		Kind:      jr.Kind,
		PO:        jr.PO,
		Protocol:  jr.Protocol,
		Wire:      jr.Wire,
		PartnerID: jr.PartnerID,
		POID:      jr.POID,
		Priority:  jr.Priority,
		Retry:     jr.Retry,
		resubmit:  true,
		journaled: true,
	}
}

// journalOutcome is the payload of a complete record.
type journalOutcome struct {
	ExchangeID string          `json:"ex,omitempty"`
	Partner    string          `json:"partner,omitempty"`
	Flow       obs.Flow        `json:"flow,omitempty"`
	Protocol   formats.Format  `json:"proto,omitempty"`
	Outcome    string          `json:"outcome"`
	Reason     string          `json:"reason,omitempty"`
	Request    *journalRequest `json:"req,omitempty"`
}

// journalResolve is the payload of a resolve record.
type journalResolvePayload struct {
	ExchangeID string `json:"ex"`
}

// journalCheckpoint is the payload of a checkpoint record.
type journalCheckpoint struct {
	ExchSeq int `json:"exchSeq"`
	JrnSeq  int `json:"jrnSeq"`
}

// journalSnapshot is what a scan of one journal derived: the hub's own at
// open time (consumed once by Recover) or a dead peer's (TakeOverJournal).
type journalSnapshot struct {
	records int
	// pending maps admission key → request for admits without a complete.
	pending map[string]*journalRequest
	// pendingOrder preserves admission order for deterministic replay.
	pendingOrder []string
	// dead maps exchange ID → outcome for unresolved dead letters.
	dead map[string]journalOutcome
	// deadOrder preserves journal order.
	deadOrder []string
	// finished are completed/failed outcomes, restored as exchange records.
	finished []journalOutcome
	// attempts counts replay-attempt records per pending admission key
	// (poison detection).
	attempts map[string]int
	// dupAdmits counts duplicate admission records that were ignored.
	dupAdmits int
}

// scanJournal derives a replay snapshot from a sequence of journal records:
// unfinished admissions, unresolved dead letters, finished outcomes, plus
// the exchange/admission sequence high-water marks. It is shared by the
// open-time replay of the hub's own journal (initJournal, which also replays
// config records via onConfig) and by the read-only takeover scan of a dead
// peer's journal (TakeOverJournal, which passes a nil onConfig — a peer's
// config history is not replayed into this hub).
func scanJournal(recs []journal.Record, onConfig func([]byte)) (snap *journalSnapshot, maxExch, maxKey int) {
	snap = &journalSnapshot{
		pending:  map[string]*journalRequest{},
		dead:     map[string]journalOutcome{},
		attempts: map[string]int{},
	}
	completedKeys := map[string]bool{}
	snap.records = len(recs)
	noteExch := func(exID string) {
		var n int
		if _, err := fmt.Sscanf(exID, "ex-%d", &n); err == nil && n > maxExch {
			maxExch = n
		}
	}
	for _, rec := range recs {
		switch rec.Kind {
		case recCheckpoint:
			var cp journalCheckpoint
			if json.Unmarshal(rec.Payload, &cp) == nil {
				if cp.ExchSeq > maxExch {
					maxExch = cp.ExchSeq
				}
				if cp.JrnSeq > maxKey {
					maxKey = cp.JrnSeq
				}
			}
		case recAdmit:
			var n int
			if _, err := fmt.Sscanf(rec.Key, "j-%d", &n); err == nil && n > maxKey {
				maxKey = n
			}
			if _, dup := snap.pending[rec.Key]; dup || completedKeys[rec.Key] {
				snap.dupAdmits++
				continue
			}
			var jr journalRequest
			if json.Unmarshal(rec.Payload, &jr) != nil || jr.Kind == "" {
				continue
			}
			snap.pending[rec.Key] = &jr
			snap.pendingOrder = append(snap.pendingOrder, rec.Key)
		case recComplete:
			var out journalOutcome
			if json.Unmarshal(rec.Payload, &out) != nil {
				continue
			}
			if rec.Key != "" {
				completedKeys[rec.Key] = true
				if _, ok := snap.pending[rec.Key]; ok {
					delete(snap.pending, rec.Key)
					snap.pendingOrder = removeKey(snap.pendingOrder, rec.Key)
				}
			}
			noteExch(out.ExchangeID)
			switch out.Outcome {
			case outcomeDeadLetter:
				if out.ExchangeID != "" {
					if _, ok := snap.dead[out.ExchangeID]; !ok {
						snap.deadOrder = append(snap.deadOrder, out.ExchangeID)
					}
					snap.dead[out.ExchangeID] = out
				}
			case outcomeCompleted, outcomeFailed:
				if out.ExchangeID != "" {
					snap.finished = append(snap.finished, out)
				}
			}
		case recResolve:
			var rp journalResolvePayload
			if json.Unmarshal(rec.Payload, &rp) == nil && rp.ExchangeID != "" {
				if _, ok := snap.dead[rp.ExchangeID]; ok {
					delete(snap.dead, rp.ExchangeID)
					snap.deadOrder = removeKey(snap.deadOrder, rp.ExchangeID)
				}
			}
		case recReplay:
			if rec.Key != "" {
				snap.attempts[rec.Key]++
			}
		case recConfig:
			// Replay config changes in journal order so the store converges
			// on the exact pre-crash epoch and active-version set before the
			// seed deploys run (they skip already-restored versions).
			if onConfig != nil {
				onConfig(rec.Payload)
			}
		}
	}
	return snap, maxExch, maxKey
}

// initJournal builds the startup snapshot and the live compaction index
// from the journal's open-time replay, and floors the hub's sequence
// counters so post-restart IDs never collide with journaled ones. Called
// once from NewHub.
func (h *Hub) initJournal() {
	snap, maxExch, maxKey := scanJournal(h.jrn.Records(), h.applyConfigRecord)
	h.jrnStartup = snap
	h.jrnSeq = maxKey
	h.mu.Lock()
	if maxExch > h.exchSeq {
		h.exchSeq = maxExch
	}
	h.mu.Unlock()
	// The live compaction index starts as a copy of the snapshot (Recover
	// consumes the snapshot; completions of its replays mutate the index).
	h.jrnPending = make(map[string]*journalRequest, len(snap.pending))
	for k, v := range snap.pending {
		h.jrnPending[k] = v
	}
	h.jrnDead = make(map[string]journalOutcome, len(snap.dead))
	for k, v := range snap.dead {
		h.jrnDead[k] = v
	}
	h.jrnAttempts = make(map[string]int, len(snap.attempts))
	for k, v := range snap.attempts {
		if _, pending := snap.pending[k]; pending {
			h.jrnAttempts[k] = v
		}
	}
}

func removeKey(keys []string, key string) []string {
	for i, k := range keys {
		if k == key {
			return append(keys[:i], keys[i+1:]...)
		}
	}
	return keys
}

// journalAdmit write-ahead-logs one admitted request and returns its
// admission key. With no journal it returns "" and nil. An append error is
// routed through the durability failure policy (see durability.go):
// fail-stop fails the admission with ErrJournalUnavailable — a hub asked
// to be durable must not accept work it cannot log — and degraded admits
// it non-durably (key "", never replayed) while the prober watches for
// the disk to heal. While degraded, appends are skipped outright: writing
// to a disk known broken could tear frames under the live segment for
// nothing.
func (h *Hub) journalAdmit(req *Request) (string, error) {
	if h.jrn == nil {
		return "", nil
	}
	if h.journalDown() {
		h.noteNonDurableAdmit()
		return "", nil
	}
	jr := toJournalRequest(req)
	payload, err := json.Marshal(jr)
	if err != nil {
		return "", fmt.Errorf("core: journal admit: %w", err)
	}
	h.jrnMu.Lock()
	h.jrnSeq++
	key := fmt.Sprintf("j-%08d", h.jrnSeq)
	err = h.jrn.Append(journal.Record{Kind: recAdmit, Key: key, Payload: payload})
	if err == nil {
		h.jrnPending[key] = jr
	}
	h.jrnMu.Unlock()
	if err != nil {
		return "", h.journalAppendFailed(err)
	}
	req.journaled = true
	return key, nil
}

// journalComplete appends the terminal outcome of an admitted request.
// Dead-letter outcomes retain the request so the queue entry survives a
// restart. Append errors are swallowed: the admission stays pending in the
// journal and a future Recover re-delivers it at most once.
func (h *Hub) journalComplete(key string, req *Request, res *Result) {
	if h.jrn == nil || key == "" {
		return
	}
	out := journalOutcome{Outcome: outcomeCompleted}
	if ex := res.Exchange; ex != nil {
		out.ExchangeID = ex.ID
		out.Partner = ex.Partner.ID
		out.Flow = ex.Flow
		out.Protocol = ex.Protocol
	}
	if res.Err != nil {
		out.Reason = res.Err.Error()
		if ex := res.Exchange; ex != nil && ex.deadLettered {
			// Journal the rerun request, so the entry reruns the same
			// way before and after a restart.
			rerun := rerunRequest(*req, ex)
			out.Outcome = outcomeDeadLetter
			out.Request = toJournalRequest(&rerun)
		} else {
			out.Outcome = outcomeFailed
		}
	}
	h.appendOutcome(key, out)
}

// journalAbort marks an admission the scheduler refused as terminal with
// nothing to recover.
func (h *Hub) journalAbort(key string, reason error) {
	if h.jrn == nil || key == "" {
		return
	}
	out := journalOutcome{Outcome: outcomeAborted}
	if reason != nil {
		out.Reason = reason.Error()
	}
	h.appendOutcome(key, out)
}

// appendOutcome journals one complete record and moves the live index. It
// reports whether the outcome is retained: appended, or held by the index
// while the journal is degraded.
func (h *Hub) appendOutcome(key string, out journalOutcome) bool {
	payload, err := json.Marshal(out)
	if err != nil {
		return false
	}
	// While degraded the append is skipped but the live index still moves:
	// the index is what the re-arm compaction writes to the fresh segment,
	// so a completion during the outage is not resurrected after it. (A
	// crash before the re-arm replays the stale journal and re-delivers at
	// most once, as always.)
	down := h.journalDown()
	h.jrnMu.Lock()
	defer h.jrnMu.Unlock()
	if !down && h.jrn.Append(journal.Record{Kind: recComplete, Key: key, Payload: payload}) != nil {
		return false
	}
	delete(h.jrnPending, key)
	delete(h.jrnAttempts, key)
	if out.Outcome == outcomeDeadLetter && out.ExchangeID != "" {
		h.jrnDead[out.ExchangeID] = out
	}
	return true
}

// journalResubmitOutcome settles a dead letter's journal entry after a
// Resubmit attempt: a successful rerun resolves it for good; a rerun that
// dead-lettered again resolves the old entry and parks the new exchange's
// record, with the same request, in its place; a rerun that never produced
// a dead letter (unknown partner, no retained request) leaves the original
// entry recoverable.
func (h *Hub) journalResubmitOutcome(dl DeadLetter, ex *Exchange, err error) {
	if h.jrn == nil {
		return
	}
	reparked := err != nil && ex != nil && ex.deadLettered
	if err != nil && !reparked {
		return
	}
	payload, merr := json.Marshal(journalResolvePayload{ExchangeID: dl.ExchangeID})
	if merr != nil {
		return
	}
	down := h.journalDown()
	h.jrnMu.Lock()
	if down || h.jrn.Append(journal.Record{Kind: recResolve, Payload: payload}) == nil {
		// Degraded: the in-memory index is what the re-arm compaction
		// writes, so dropping the entry there resolves it durably enough.
		delete(h.jrnDead, dl.ExchangeID)
	}
	h.jrnMu.Unlock()
	if reparked {
		out := journalOutcome{
			ExchangeID: ex.ID,
			Partner:    ex.Partner.ID,
			Flow:       ex.Flow,
			Protocol:   ex.Protocol,
			Outcome:    outcomeDeadLetter,
			Reason:     err.Error(),
			Request:    toJournalRequest(dl.req),
		}
		h.appendOutcome("", out)
	}
}

// RecoveryReport is what one journal replay did: Recover's pass over the
// hub's own journal, or TakeOverJournal's over a dead peer's.
type RecoveryReport struct {
	// Records is how many records the replayed journal yielded; TornBytes
	// how many trailing bytes of a torn final append were truncated away
	// (a peer's file is only read, so there they are ignored).
	Records   int
	TornBytes int64
	// Restored counts completed exchanges restored as records.
	Restored int
	// DeadLetters counts dead letters restored to the queue, replayable
	// via Resubmit.
	DeadLetters int
	// Reenqueued counts unfinished admissions re-run through the
	// scheduler; Recovered the replays that completed, Redelivered the
	// replays that dead-lettered again (at-most-once redelivery) or that
	// this hub had to park without running.
	Reenqueued  int
	Recovered   int
	Redelivered int
	// DuplicateAdmits counts duplicate admission records ignored by the
	// replay (idempotence by admission key).
	DuplicateAdmits int
	// Corrupt counts mid-file corrupt regions: quarantined by the journal's
	// open-time repair, or skipped past in a peer's read-only file;
	// QuarantinedBytes is the quarantined regions' total size.
	Corrupt          int
	QuarantinedBytes int64
	// Poisoned counts admissions parked to the dead-letter queue instead
	// of replayed, after poisonThreshold replay attempts crashed or failed
	// to complete.
	Poisoned int
	// Skipped counts a peer's entries for partners the owns predicate
	// rejected: partners reassigned to a different successor, which
	// recovers them from the same journal.
	Skipped int
}

// Recover replays the journal a hub was opened on: completed exchanges
// come back as records (ExchangeByID), unresolved dead letters come back
// on the queue replayable via Resubmit, and unfinished admissions are
// re-enqueued through the scheduler with duplicate tolerance — a crash
// between "executed" and "journaled-complete" re-delivers at most once
// into the dead-letter queue instead of double-executing. Recover blocks
// until the re-enqueued admissions resolve or ctx is done, and is
// idempotent: a second call finds nothing to replay.
//
// Call Recover before submitting new work; replayed admissions share the
// scheduler with live traffic otherwise.
func (h *Hub) Recover(ctx context.Context) (RecoveryReport, error) {
	var rep RecoveryReport
	if h.jrn == nil {
		return rep, ErrNoJournal
	}
	h.jrnMu.Lock()
	snap := h.jrnStartup
	h.jrnStartup = nil
	h.jrnMu.Unlock()
	if snap == nil {
		return rep, nil
	}
	jst := h.jrn.Stats()
	rep.TornBytes = jst.TornBytes
	rep.Corrupt = jst.Corrupt
	rep.QuarantinedBytes = jst.QuarantinedBytes
	err := h.replay(ctx, snap, false, nil, &rep)
	return rep, err
}

// replay restores one journal snapshot into the hub, the hub's own (Recover)
// or a dead peer's (peer, TakeOverJournal). Only entries whose partner owns
// claims are replayed (nil claims all); the rest count as Skipped. Per entry:
//
//   - a finished outcome is restored as an exchange record and never re-run;
//   - an unresolved dead letter goes back on the queue through the cap; a
//     peer's is prefixed "taken over" and re-journaled here;
//   - an unfinished admission re-runs through the scheduler with duplicate
//     tolerance, under its own admission key after a journaled attempt
//     record, or for a peer's entry under a fresh key in this hub's journal;
//   - an admission with poisonThreshold attempts is parked instead, so one
//     that keeps crashing recovery does not crash-loop it forever.
//
// A re-run the scheduler refuses stays pending in this hub's journal for
// the next Recover. An entry with no admission here to fall back on (the
// hub has no journal, or its journal refused the admit) is parked in memory
// and counted Redelivered: the dead peer already acknowledged that work.
// replay blocks until the re-runs resolve or ctx is done.
func (h *Hub) replay(ctx context.Context, snap *journalSnapshot, peer bool, owns func(string) bool, rep *RecoveryReport) error {
	if owns == nil {
		owns = func(string) bool { return true }
	}
	rep.Records = snap.records
	rep.DuplicateAdmits = snap.dupAdmits
	start := time.Now()
	h.bus.Emit(obs.Event{Kind: obs.KindRecovery, Stage: obs.StageRecovery, Step: obs.StepStarted})

	for _, out := range snap.finished {
		if !owns(out.Partner) {
			rep.Skipped++
			continue
		}
		if h.restoreExchange(out) {
			rep.Restored++
			h.bus.Emit(obs.Event{
				ExchangeID: out.ExchangeID, Partner: out.Partner, Flow: out.Flow,
				Kind: obs.KindRecovery, Stage: obs.StageRecovery, Step: obs.StepRestored,
			})
		}
	}

	for _, exID := range snap.deadOrder {
		out := snap.dead[exID]
		if !owns(out.Partner) {
			rep.Skipped++
			continue
		}
		h.restoreExchange(out)
		reason, journaled := out.Reason, true
		if peer {
			reason = "taken over: " + reason
			journaled = h.jrn != nil && h.appendOutcome("", out)
		}
		dl := DeadLetter{
			ExchangeID: out.ExchangeID,
			Partner:    out.Partner,
			Flow:       out.Flow,
			Protocol:   out.Protocol,
			Reason:     errors.New(reason),
			At:         time.Now(),
			journaled:  journaled,
		}
		if out.Request != nil {
			req := out.Request.toRequest()
			req.journaled = journaled
			dl.req = &req
		}
		h.parkDeadLetter(dl)
		rep.DeadLetters++
		h.bus.Emit(obs.Event{
			ExchangeID: out.ExchangeID, Partner: out.Partner, Flow: out.Flow,
			Kind: obs.KindRecovery, Stage: obs.StageRecovery, Step: obs.StepDeadLetterRestored,
		})
	}

	var replays []*Future
	for _, orig := range snap.pendingOrder {
		req := snap.pending[orig].toRequest()
		key := orig
		var err error
		if peer {
			// A wire PO with no partner hint reports "": the predicate
			// decides who takes unattributable work.
			if !owns(req.healthKey()) {
				rep.Skipped++
				continue
			}
			req.journaled = false
			key, err = h.journalAdmit(&req)
		}
		if n := snap.attempts[orig]; n >= poisonThreshold {
			cause := fmt.Errorf("core: poison admission %s: %d recovery replays did not complete", orig, n)
			h.park(req, key, cause, obs.KindDurability, obs.StageDurability, obs.StepPoisoned)
			h.dur.mu.Lock()
			h.dur.poisoned++
			h.dur.mu.Unlock()
			rep.Poisoned++
			continue
		}
		if !peer {
			h.jrnMu.Lock()
			_ = h.jrn.Append(journal.Record{Kind: recReplay, Key: key})
			h.jrnAttempts[key]++
			h.jrnMu.Unlock()
		}
		var fut *Future
		if err == nil {
			fut, err = h.doAsync(ctx, req, key)
		}
		switch {
		case err == nil:
			rep.Reenqueued++
			replays = append(replays, fut)
		case req.journaled:
			// The scheduler refused (stopped, ctx done): the admission
			// stays pending in this journal for the next Recover.
		default:
			// No journal here holds the admission: park it in memory,
			// attributed by a replayed event that carries the refusal.
			h.park(req, "", fmt.Errorf("core: replay of %s refused: %w", orig, err),
				obs.KindRecovery, obs.StageRecovery, obs.StepReplayed)
			rep.Reenqueued++
			rep.Redelivered++
		}
	}
	for _, fut := range replays {
		res := fut.Result(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if res.Err == nil {
			rep.Recovered++
		} else {
			rep.Redelivered++
		}
		var exID string
		if res.Exchange != nil {
			exID = res.Exchange.ID
		}
		h.bus.Emit(obs.Event{
			ExchangeID: exID,
			Kind:       obs.KindRecovery, Stage: obs.StageRecovery, Step: obs.StepReplayed,
			Err: res.Err,
		})
	}
	h.bus.Emit(obs.Event{
		Kind: obs.KindRecovery, Stage: obs.StageRecovery, Step: obs.StepFinished,
		Elapsed: time.Since(start),
	})
	return nil
}

// restoreExchange recreates a journaled exchange's record. The partner
// must still be in the model; records for partners removed since are
// skipped (false).
func (h *Hub) restoreExchange(out journalOutcome) bool {
	if out.ExchangeID == "" {
		return false
	}
	route, ok := h.resolveRoute(out.Partner)
	if !ok {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, exists := h.exchanges[out.ExchangeID]; exists {
		return false
	}
	h.exchanges[out.ExchangeID] = &Exchange{
		ID:       out.ExchangeID,
		Partner:  route.partner,
		Protocol: route.partner.Protocol,
		Backend:  route.partner.Backend,
		Flow:     out.Flow,
		route:    route,
	}
	return true
}

// CheckpointJournal compacts the journal to its live entries: a checkpoint
// record carrying the sequence floors, every unfinished admission, and
// every unresolved dead letter. Finished exchanges' records are dropped —
// compaction trades restart-time history for a log that grows with live
// state, not with traffic.
func (h *Hub) CheckpointJournal() error {
	if h.jrn == nil {
		return ErrNoJournal
	}
	h.mu.Lock()
	exchSeq := h.exchSeq
	h.mu.Unlock()
	h.jrnMu.Lock()
	defer h.jrnMu.Unlock()
	cp, err := json.Marshal(journalCheckpoint{ExchSeq: exchSeq, JrnSeq: h.jrnSeq})
	if err != nil {
		return err
	}
	live := []journal.Record{{Kind: recCheckpoint, Payload: cp}}
	for key, jr := range h.jrnPending {
		payload, err := json.Marshal(jr)
		if err != nil {
			continue
		}
		live = append(live, journal.Record{Kind: recAdmit, Key: key, Payload: payload})
		// The admission's replay-attempt count survives compaction, or a
		// poison record could reset its own clock every checkpoint.
		for i := 0; i < h.jrnAttempts[key]; i++ {
			live = append(live, journal.Record{Kind: recReplay, Key: key})
		}
	}
	for _, out := range h.jrnDead {
		payload, err := json.Marshal(out)
		if err != nil {
			continue
		}
		live = append(live, journal.Record{Kind: recComplete, Payload: payload})
	}
	// The config store's live state is part of the compacted log: replaying
	// it restores the exact config epoch and active versions.
	live = append(live, h.configLiveRecords()...)
	return h.jrn.Compact(live)
}

// Journal exposes the hub's write-ahead log (nil without WithJournal);
// chaos harnesses arm crash points through it.
func (h *Hub) Journal() *journal.Journal { return h.jrn }

// CloseJournal syncs and closes the journal, stopping the degraded-mode
// disk prober if one is running. The hub must not admit new work
// afterwards.
func (h *Hub) CloseJournal() error {
	if h.jrn == nil {
		return nil
	}
	h.stopDurabilityProbe()
	return h.jrn.Close()
}
