package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cfgstore"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/journal"
	"repro/internal/obs"
)

// The durability layer: a hub built WithJournal write-ahead-logs its
// exchange lifecycle and its model changes (see internal/journal for the
// file format). The protocol is four record kinds plus a compaction
// checkpoint:
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
//   - "change": one change applied to the live hub (Hub.Apply) with its
//     artifact, replayed onto the startup model when the hub opens the
//     journal.
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
	// recChange is one change applied to the live hub (Hub.Apply), with
	// its artifact; replaying the change records onto the startup model
	// restores the pre-crash model, config epoch and active versions.
	recChange = "change"
	// recConfig is the pointer-only config record of an earlier journal
	// format (an artifact's class, name and version, not its body). It
	// cannot be replayed; Recover reports the versions it names that the
	// restarted hub does not hold.
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

// changeEntry is the payload of a change record: the kind and the
// change's artifact.
type changeEntry struct {
	Kind   string          `json:"kind"`
	Change json.RawMessage `json:"change,omitempty"`
}

// encodeChange renders one applied change as a change record payload. A
// swapped transform is Go code: its record names the key and version.
func encodeChange(c Change, rec *ChangeRecord) ([]byte, error) {
	var body any = c
	if _, ok := c.(SwapTransform); ok {
		v := rec.Versions[0]
		body = transformRef{Key: v.Name, Version: v.Version}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return json.Marshal(changeEntry{Kind: c.kind(), Change: raw})
}

// changeDecoders decodes each kind's journaled artifact.
var changeDecoders = map[string]func(json.RawMessage) (Change, error){
	AddPartner{}.kind():      decodeAs[AddPartner],
	RemovePartner{}.kind():   decodeAs[RemovePartner],
	AddBackend{}.kind():      decodeAs[AddBackend],
	ChangeThreshold{}.kind(): decodeAs[ChangeThreshold],
	NewTypeVersion{}.kind():  decodeAs[NewTypeVersion],
	EnableInvoicing{}.kind(): decodeAs[EnableInvoicing],
	Rollback{}.kind():        decodeAs[Rollback],
	Canary{}.kind():          decodeAs[Canary],
	SettleCanary{}.kind():    decodeAs[SettleCanary],
	SwapTransform{}.kind(): func(raw json.RawMessage) (Change, error) {
		var ref transformRef
		err := json.Unmarshal(raw, &ref)
		return SwapTransform{ref: ref}, err
	},
}

func decodeAs[C Change](raw json.RawMessage) (Change, error) {
	var c C
	err := json.Unmarshal(raw, &c)
	return c, err
}

// decodeChange parses one change record payload. It is the fuzzed decoding
// surface: any payload yields either a change or an error, and Apply
// decides whether the change holds.
func decodeChange(payload []byte) (Change, error) {
	var ce changeEntry
	if err := json.Unmarshal(payload, &ce); err != nil {
		return nil, fmt.Errorf("core: change record: %w", err)
	}
	decode, ok := changeDecoders[ce.Kind]
	if !ok {
		return nil, fmt.Errorf("core: change record: unknown kind %q", ce.Kind)
	}
	if len(ce.Change) == 0 {
		ce.Change = json.RawMessage("{}")
	}
	c, err := decode(ce.Change)
	if err != nil {
		return nil, fmt.Errorf("core: change record %s: %w", ce.Kind, err)
	}
	return c, nil
}

// journalChange write-ahead-logs one change before Apply publishes it.
// Under FailStop a refused append refuses the change; under Degraded the
// change goes ahead non-durably and, like the live admission index, is
// kept for the re-arm compaction.
func (h *Hub) journalChange(c Change, rec *ChangeRecord) error {
	if h.jrn == nil {
		return nil
	}
	payload, err := encodeChange(c, rec)
	if err != nil {
		return fmt.Errorf("core: journal change: %w", err)
	}
	r := journal.Record{Kind: recChange, Payload: payload}
	if err := h.ledger.change(r, false); err != nil {
		if err := h.journalAppendFailed(err, true); err != nil {
			return err
		}
		return h.ledger.change(r, true)
	}
	return nil
}

// openJournal derives the startup snapshot from the journal's open-time
// replay, replays its changes onto the startup model and hands the rest to
// the ledger as its live index, with the exchange and admission sequences
// floored so post-restart IDs never collide with journaled ones. Called
// once from NewHub.
func (h *Hub) openJournal() {
	snap, maxExch, maxKey := scanJournal(h.jrn.Records())
	h.ledger.load(snap, maxExch, maxKey, h.replayChanges(snap))
	h.jrnStartup.Store(snap)
}

// replayChanges applies the journaled changes onto the startup snapshot in
// journal order, at open, and returns the records that applied: the ones
// the next compaction keeps. A change that does not apply again — its
// artifact is Go code this process cannot rebuild, or it rests on a change
// that did not replay — is left out and reported by Recover, as is every
// version a pointer-only config record names that the hub does not hold.
func (h *Hub) replayChanges(snap *journalSnapshot) []journal.Record {
	var kept []journal.Record
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	for _, r := range snap.changes {
		c, err := decodeChange(r.Payload)
		if err == nil {
			if _, err = h.apply(c, false); err != nil {
				err = fmt.Errorf("%s: %w", c.kind(), err)
			}
		}
		if err != nil {
			snap.unrebuilt = append(snap.unrebuilt, err.Error())
			continue
		}
		kept = append(kept, r)
	}
	store := h.snap.Load().store
	for _, jc := range snap.pointers {
		held := false
		for _, v := range store.History(cfgstore.Class(jc.Class), jc.Name) {
			held = held || v.Version == jc.Version
		}
		if !held {
			snap.unrebuilt = append(snap.unrebuilt, fmt.Sprintf("core: config record %s %s:%s v%d names no body", jc.Action, jc.Class, jc.Name, jc.Version))
		}
	}
	return kept
}

// journalConfig is the payload of an earlier format's pointer-only config
// record.
type journalConfig struct {
	Action  string `json:"action"`
	Class   string `json:"class"`
	Name    string `json:"name"`
	Version int    `json:"version"`
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

// toRequest rebuilds the submission for a recovery replay or a restored
// dead letter: replays tolerate the backend's duplicate-order rejection
// because the original run may have executed before the crash.
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
// open time (adopted by the ledger, replayed once by Recover) or a dead
// peer's (TakeOverJournal).
type journalSnapshot struct {
	records int
	// pending are the admissions without a terminal record, in admission
	// order, each with its replay attempts.
	pending []*admission
	// dead are the unresolved dead letters, in journal order.
	dead []journalOutcome
	// finished are completed/failed outcomes, restored as exchange records.
	finished []journalOutcome
	// dupAdmits counts duplicate admission records that were ignored.
	dupAdmits int
	// changes are the change records and pointers the pointer-only config
	// records of the hub's own journal; unrebuilt describes those that did
	// not replay (replayChanges).
	changes   []journal.Record
	pointers  []journalConfig
	unrebuilt []string
}

// scanJournal derives a replay snapshot from a sequence of journal records:
// unfinished admissions, unresolved dead letters, finished outcomes, the
// change records, plus the exchange/admission sequence high-water marks.
// It is shared by the open-time replay of the hub's own journal
// (openJournal; NewHub then replays the changes) and by the read-only
// takeover scan of a dead peer's journal (TakeOverJournal, which ignores
// the changes — a peer's config history is not replayed into this hub).
func scanJournal(recs []journal.Record) (snap *journalSnapshot, maxExch, maxKey int) {
	snap = &journalSnapshot{records: len(recs)}
	// admitted maps every admission key seen to its admission, nil once a
	// complete record ended it; dead maps an unresolved dead letter's
	// exchange ID to its latest position in deadOrder.
	admitted := map[string]*admission{}
	var admitOrder []*admission
	attempts := map[string]int{}
	dead := map[string]int{}
	var deadOrder []journalOutcome
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
			if _, dup := admitted[rec.Key]; dup {
				snap.dupAdmits++
				continue
			}
			a := &admission{key: rec.Key}
			if json.Unmarshal(rec.Payload, &a.req) != nil || a.req.Kind == "" {
				continue
			}
			admitted[rec.Key] = a
			admitOrder = append(admitOrder, a)
		case recComplete:
			var out journalOutcome
			if json.Unmarshal(rec.Payload, &out) != nil {
				continue
			}
			if rec.Key != "" {
				admitted[rec.Key] = nil
			}
			noteExch(out.ExchangeID)
			switch out.Outcome {
			case outcomeDeadLetter:
				if out.ExchangeID != "" {
					if _, ok := dead[out.ExchangeID]; !ok {
						dead[out.ExchangeID] = len(deadOrder)
						deadOrder = append(deadOrder, out)
					} else {
						deadOrder[dead[out.ExchangeID]] = out
					}
				}
			case outcomeCompleted, outcomeFailed:
				if out.ExchangeID != "" {
					snap.finished = append(snap.finished, out)
				}
			}
		case recResolve:
			var rp journalResolvePayload
			if json.Unmarshal(rec.Payload, &rp) == nil && rp.ExchangeID != "" {
				delete(dead, rp.ExchangeID)
			}
		case recReplay:
			if rec.Key != "" {
				attempts[rec.Key]++
			}
		case recChange:
			snap.changes = append(snap.changes, rec)
		case recConfig:
			var jc journalConfig
			if json.Unmarshal(rec.Payload, &jc) == nil && jc.Name != "" && jc.Version > 0 {
				snap.pointers = append(snap.pointers, jc)
			}
		}
	}
	for _, a := range admitOrder {
		if admitted[a.key] == a {
			a.attempts = attempts[a.key]
			snap.pending = append(snap.pending, a)
		}
	}
	for i, out := range deadOrder {
		if pos, ok := dead[out.ExchangeID]; ok && pos == i {
			snap.dead = append(snap.dead, out)
		}
	}
	return snap, maxExch, maxKey
}

// admit write-ahead-logs one admitted request and sets its admission key.
// Without a journal it does nothing. An append error is routed through the
// durability failure policy (see durability.go): fail-stop fails the
// admission with ErrJournalUnavailable — a hub asked to be durable must not
// accept work it cannot log — and degraded admits it non-durably (no key,
// never replayed) while the prober watches for the disk to heal. While
// degraded, appends are skipped outright: writing to a disk known broken
// could tear frames under the live segment for nothing.
func (h *Hub) admit(req *Request) error {
	if h.jrn == nil {
		return nil
	}
	if h.dur.down() {
		h.noteNonDurableAdmit()
		return nil
	}
	a := &admission{req: *toJournalRequest(req)}
	payload, err := json.Marshal(&a.req)
	if err != nil {
		return fmt.Errorf("core: journal admit: %w", err)
	}
	key, err := h.ledger.admit(a, payload)
	if err != nil {
		return h.journalAppendFailed(err, false)
	}
	req.key = key
	return nil
}

// RecoveryReport is what one journal replay did: Recover's pass over the
// hub's own journal, or TakeOverJournal's over a dead peer's.
type RecoveryReport struct {
	// Records is how many records the replayed journal yielded; TornBytes
	// how many trailing bytes of a torn final append were truncated away
	// (a peer's file is only read, so there they are ignored).
	Records   int
	TornBytes int64
	// Restored counts finished exchanges restored as records: at most the
	// retention window's 1,024 newest, however many Records held.
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
	// Unrebuildable describes each journaled change the hub could not
	// replay at open — a swapped transform is Go code, and a pointer-only
	// config record of an earlier format names no body — so the version it
	// names is not active.
	Unrebuildable []string
}

// Recover replays the journal a hub was opened on: the newest finished
// exchanges, up to the retention window's 1,024, come back as records
// (ExchangeByID), unresolved dead letters come back
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
	snap := h.jrnStartup.Swap(nil)
	if snap == nil {
		return rep, nil
	}
	rep.Unrebuildable = snap.unrebuilt
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
//   - a finished outcome is restored as an exchange record and never re-run,
//     the newest RetentionWindow of them only, since the retention window
//     would age the older ones out at once;
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

	finished := snap.finished
	if n := len(finished) - RetentionWindow; n > 0 {
		finished = finished[n:]
	}
	for _, out := range slices.Concat(finished, snap.dead) {
		if !owns(out.Partner) {
			rep.Skipped++
			continue
		}
		restored, evs, a := h.ledger.recover(&out, h.snap.Load(), peer)
		h.emit(evs)
		h.forget(a)
		step := obs.StepRestored
		switch {
		case out.Outcome == outcomeDeadLetter:
			rep.DeadLetters++
			step = obs.StepDeadLetterRestored
		case restored:
			rep.Restored++
		default:
			continue
		}
		h.bus.Emit(obs.Event{
			ExchangeID: out.ExchangeID, Partner: out.Partner, Flow: out.Flow,
			Kind: obs.KindRecovery, Stage: obs.StageRecovery, Step: step,
		})
	}

	var replays []*Future
	for _, a := range snap.pending {
		req := a.req.toRequest()
		var err error
		if peer {
			// A wire PO with no partner hint reports "": the predicate
			// decides who takes unattributable work.
			if !owns(req.healthKey()) {
				rep.Skipped++
				continue
			}
			err = h.admit(&req)
		} else {
			req.key = a.key
		}
		if a.attempts >= poisonThreshold {
			cause := fmt.Errorf("core: poison admission %s: %d recovery replays did not complete", a.key, a.attempts)
			h.park(req, cause, obs.KindDurability, obs.StageDurability, obs.StepPoisoned)
			h.dur.mu.Lock()
			h.dur.poisoned++
			h.dur.mu.Unlock()
			rep.Poisoned++
			continue
		}
		if !peer {
			h.ledger.recoverAdmission(a.key)
		}
		var fut *Future
		if err == nil {
			fut, err = h.doAsync(ctx, req)
		}
		switch {
		case err == nil:
			rep.Reenqueued++
			replays = append(replays, fut)
		case req.key != "":
			// The scheduler refused (stopped, ctx done): the admission
			// stays pending in this journal for the next Recover.
		default:
			// No journal here holds the admission: park it in memory,
			// attributed by a replayed event that carries the refusal.
			h.park(req, fmt.Errorf("core: replay of %s refused: %w", a.key, err),
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

// CheckpointJournal compacts the journal to its live entries: a checkpoint
// record carrying the sequence floors, every unfinished admission in key
// order, every unresolved dead letter (those a cap spilled in the order
// they left the queue, then the queued ones in the order they were
// parked), and every change record the next open replays. Finished
// exchanges' records are dropped — compaction trades restart-time history
// for a log that grows with live state and changes, not with traffic — and
// a restart replays and queues what is left in the order the hub held it.
// The hub also compacts on its own, inline in the transition whose append
// makes the records appended since the last compaction reach twice the
// retention window or the live entries' count, whichever is larger;
// CheckpointJournal compacts now, as a drain does.
func (h *Hub) CheckpointJournal() error {
	if h.jrn == nil {
		return ErrNoJournal
	}
	return h.ledger.checkpoint()
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
