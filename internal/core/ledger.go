package core

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// ledger is the one owner of exchange lifecycle state, the hub's
// counterpart of the engine's workflow database (Figure 4): under one lock,
// the exchange table, its ID sequence and a trace per record, the retention
// window of finished exchanges, the dead-letter set and its cap, and the
// journal's live index (pending admissions with their replay attempts, the
// admission-key sequence, the change records compaction keeps). Each
// transition is one method that changes state and writes its journal record
// together, then returns the events its caller emits and the exchanges
// whose instances it forgets once the lock is released, since bus sinks may
// read the ledger back.
//
//   - An admission is pending from admit until complete, fail, park or
//     abort writes its terminal record; recoverAdmission journals a replay.
//   - An exchange runs from start until complete, fail or park; recover
//     restores journaled ones.
//   - A finished exchange is retained from complete, fail or recover, and a
//     parked one from the moment its dead letter leaves the set for good,
//     until forget ages it out of the window (retain).
//   - A dead letter is queued from park or recover until take hands it to
//     a rerun, which resolves it, puts it back in place or, parking again,
//     replaces it; evict takes one off a full queue, spilled to the
//     journal's keeping when the journal holds its record.
//
// Appends, with their inline batched fsync, run under the lock, and so
// does the automatic compaction a transition's appends trigger (unlock);
// no per-hop path takes the lock: an exchange's steps find it on their
// context (withExchange). Lock order: swapMu, then the ledger; h.mu is
// never held with it; the durability and collector locks are leaves.
type ledger struct {
	jrn    *journal.Journal // nil without WithJournal
	dur    *durability
	traces *obs.Collector
	cap    int // dead-letter queue bound, 0 = unbounded

	mu        sync.Mutex
	exchSeq   int
	exchanges map[string]*Exchange
	// The retention window: the finished exchanges the table keeps, in the
	// order they finished, in a ring of RetentionWindow slots, allocated
	// with the ledger; once it is full, next is the slot whose occupant the
	// next one ages out.
	done []*Exchange
	next int
	// The dead-letter set: the queue (queued and taken entries in park
	// order; a put-back keeps its place), the entries spilled off it in the
	// order they left, and both by exchange ID. queued counts the takeable
	// entries, unresolved those whose record the journal holds.
	dead, spilled      []*deadEntry
	byID               map[string]*deadEntry
	queued, unresolved int
	keySeq             int
	pending            map[string]*admission
	changes            []journal.Record
	// appended counts the records appended since the journal's last
	// compaction, attempts the replay attempts of the pending admissions.
	appended, attempts int
}

// RetentionWindow bounds what the hub keeps of its finished exchanges: the
// ledger retains that many (their records, their traces and, through the
// engine, their instances), the journal compacts once about that many
// outcomes outgrow its live entries, and Recover restores at most that
// many.
const RetentionWindow = 1024

// aged holds the exchanges one transition aged out of the retention window,
// whose instances its caller forgets once the lock is released
// (Hub.forget). A park ages out at most two: the parked exchange its rerun
// replaced and one whose unjournaled dead letter a full queue dropped.
type aged [2]*Exchange

type exState uint8

const (
	exRunning exState = iota
	exCompleted
	exFailed
	exParked
)

type dlState uint8

const (
	dlOut     dlState = iota // not in the set: not yet parked, or resolved
	dlQueued                 // on the queue, takeable
	dlTaken                  // on the queue, handed to a rerun
	dlSpilled                // off the queue, kept by the journal alone
)

// deadEntry is one dead letter; rec is its unresolved dead-letter record,
// nil when the journal holds none.
type deadEntry struct {
	dl    DeadLetter
	state dlState
	rec   *journalOutcome
}

// admission is a journaled request without a terminal record.
type admission struct {
	key      string
	req      journalRequest
	attempts int
}

func newLedger(jrn *journal.Journal, dur *durability, traces *obs.Collector, dlqCap, exchIDBase int) *ledger {
	return &ledger{
		jrn:       jrn,
		dur:       dur,
		traces:    traces,
		cap:       dlqCap,
		exchSeq:   exchIDBase,
		exchanges: map[string]*Exchange{},
		done:      make([]*Exchange, 0, RetentionWindow),
		byID:      map[string]*deadEntry{},
		pending:   map[string]*admission{},
	}
}

// load adopts the open-time scan of the hub's own journal: its admissions
// stay pending and its dead letters spilled until Recover replays and
// queues them, and the sequences are floored past every journaled ID.
func (l *ledger) load(snap *journalSnapshot, maxExch, maxKey int, changes []journal.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.exchSeq = max(l.exchSeq, maxExch)
	l.keySeq = maxKey
	l.changes = changes
	for _, a := range snap.pending {
		l.pending[a.key] = a
		l.attempts += a.attempts
	}
	for i := range snap.dead {
		out := &snap.dead[i]
		l.link(&deadEntry{dl: DeadLetter{ExchangeID: out.ExchangeID}, rec: out}, dlSpilled)
	}
}

// admit journals a request, its payload marshalled by the caller, under a
// fresh admission key and enters it pending.
func (l *ledger) admit(a *admission, payload []byte) (string, error) {
	l.mu.Lock()
	defer l.unlock()
	l.keySeq++
	a.key = seqID("j-", 8, l.keySeq)
	if err := l.log(journal.Record{Kind: recAdmit, Key: a.key, Payload: payload}); err != nil {
		return "", err
	}
	l.pending[a.key] = a
	return a.key, nil
}

// start enters ex running under the next ID, opening its trace, and arms
// its canary by canaryKey.
func (l *ledger) start(ex *Exchange, canaryKey string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.exchSeq++
	ex.ID = seqID("ex-", 6, l.exchSeq)
	ex.armCanary(canaryKey)
	l.exchanges[ex.ID] = ex
	l.traces.Open(ex.ID)
}

// seqID is fmt.Sprintf("%s%0*d", prefix, width, n) for n >= 0 and
// width <= 8, without boxing n.
func seqID(prefix string, width, n int) string {
	var scratch [20]byte
	digits := strconv.AppendInt(scratch[:0], int64(n), 10)
	return prefix + "00000000"[min(len(digits), width):width] + string(digits)
}

// complete ends a request that succeeded and retains its exchange.
func (l *ledger) complete(key string, ex *Exchange) aged {
	l.mu.Lock()
	defer l.unlock()
	var a aged
	if ex != nil {
		ex.state = exCompleted
		a[0] = l.retain(ex)
	}
	l.retire(key, outcomeOf(ex, outcomeCompleted, nil))
	return a
}

// fail ends a request that failed without a dead letter, before its
// exchange existed (ex nil) or after it finished, and retains the exchange;
// one park ended stays so.
func (l *ledger) fail(key string, ex *Exchange, err error) aged {
	l.mu.Lock()
	defer l.unlock()
	var a aged
	if ex != nil {
		if ex.state == exParked {
			return a
		}
		ex.state = exFailed
		a[0] = l.retain(ex)
	}
	l.retire(key, outcomeOf(ex, outcomeFailed, err))
	return a
}

// abort ends a request the scheduler refused, so a restart never runs it.
func (l *ledger) abort(key string, reason error) {
	l.mu.Lock()
	defer l.unlock()
	l.retire(key, outcomeOf(nil, outcomeAborted, reason))
}

// park ends a running exchange on the dead-letter queue with req, the
// request a rerun replays. Its record is written before it is queued, so no
// rerun can resolve it first: under the admission key, or, for a rerun that
// failed again (req.taken), after the resolve of the entry it replaces.
func (l *ledger) park(ex *Exchange, reason error, req Request) ([]obs.Event, aged) {
	key, taken := req.key, req.taken
	req.key, req.taken = "", nil
	out := outcomeOf(ex, outcomeDeadLetter, reason)
	e := newDeadEntry(&out, reason)
	e.dl.req = &req
	l.mu.Lock()
	defer l.unlock()
	ex.state = exParked
	var a aged
	switch {
	case taken != nil:
		// The record keeps the request the rerun ran, so the entry reruns
		// the same way before and after a restart.
		rerun := taken.dl.req // a spill lets go of it
		a[0] = l.resolve(taken)
		if l.jrn != nil {
			out.Request = toJournalRequest(rerun)
			if l.writeJSON(recComplete, "", &out) == nil {
				e.rec = &out
			}
		}
	case key != "":
		rerun := rerunRequest(req, ex)
		out.Request = toJournalRequest(&rerun)
		if l.retire(key, out) {
			e.rec = &out
		}
	}
	evs, gone := l.enqueue(e)
	a[1] = gone
	return evs, a
}

// take hands a queued entry that retains its request to one rerun.
func (l *ledger) take(exchangeID string) (*deadEntry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.byID[exchangeID]
	if e == nil || e.state != dlQueued {
		return nil, fmt.Errorf("%w: %s", ErrNotDeadLettered, exchangeID)
	}
	if e.dl.req == nil {
		return nil, fmt.Errorf("core: dead letter %s retains no request", exchangeID)
	}
	e.state = dlTaken
	l.queued--
	return e, nil
}

// rerun settles a taken entry once its rerun returned: resolved on success,
// put back in place on a failure that parked nothing (a refusal, or one
// before the rerun's exchange existed); a rerun that parked replaced it.
func (l *ledger) rerun(e *deadEntry, err error) aged {
	l.mu.Lock()
	defer l.unlock()
	switch {
	case e.state != dlTaken:
	case err != nil:
		e.state = dlQueued
		l.queued++
	default:
		return aged{l.resolve(e)}
	}
	return aged{}
}

// recover restores a journaled outcome: its exchange's record (reporting
// whether it was restored), retained when it finished, and a dead letter's
// entry on the queue. The hub's own dead letters move onto the queue; a
// dead peer's (peer) are journaled here first and marked "taken over".
func (l *ledger) recover(out *journalOutcome, snap *Snapshot, peer bool) (bool, []obs.Event, aged) {
	l.mu.Lock()
	defer l.unlock()
	if out.Outcome == outcomeCompleted || out.Outcome == outcomeFailed {
		st := exCompleted
		if out.Outcome == outcomeFailed {
			st = exFailed
		}
		ex := l.restore(out, snap, st)
		if ex == nil {
			return false, nil, aged{}
		}
		return true, nil, aged{l.retain(ex)}
	}
	restored := l.restore(out, snap, exParked) != nil
	reason := out.Reason
	if peer {
		reason = "taken over: " + reason
	}
	e := newDeadEntry(out, errors.New(reason))
	if old := l.byID[out.ExchangeID]; old != nil && !peer {
		e.rec = old.rec
		l.unlink(old)
	} else if peer && l.jrn != nil && l.writeJSON(recComplete, "", out) == nil {
		e.rec = out
	}
	evs, gone := l.enqueue(e)
	return restored, evs, aged{gone}
}

// recoverAdmission journals a replay of a pending admission before it runs,
// so one that keeps crashing the hub reaches poisonThreshold.
func (l *ledger) recoverAdmission(key string) {
	l.mu.Lock()
	defer l.unlock()
	_ = l.write(journal.Record{Kind: recReplay, Key: key})
	if a := l.pending[key]; a != nil {
		a.attempts++
		l.attempts++
	}
}

// change journals a change record and keeps it for compaction; refused
// keeps one the journal refused and the failure policy let go ahead
// non-durably, for the re-arm compaction.
func (l *ledger) change(r journal.Record, refused bool) error {
	l.mu.Lock()
	defer l.unlock()
	if !refused {
		if err := l.write(r); err != nil {
			return err
		}
	}
	l.changes = append(l.changes, r)
	return nil
}

// checkpoint compacts the journal to the live index (compact).
func (l *ledger) checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compact()
}

func (l *ledger) lookup(id string) (*Exchange, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ex, ok := l.exchanges[id]
	return ex, ok
}

// deadLetters copies the queue in order.
func (l *ledger) deadLetters() []DeadLetter {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []DeadLetter
	for _, e := range l.dead {
		if e.state == dlQueued {
			out = append(out, e.dl)
		}
	}
	return out
}

// counts reports the queue depth, the pending admissions and the
// unresolved dead-letter records.
func (l *ledger) counts() (depth, pending, unresolved int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.queued, len(l.pending), l.unresolved
}

// The methods below run under the lock.

// unlock ends a transition. Once the records appended since the journal's
// last compaction reach twice the retention window, or the live index's
// record count if that is larger, it first compacts the journal to the
// live index the transition left, so a compaction writes at most one record
// per record appended since the last. It skips that while the journal is
// down (the re-arm compacts) or frozen by a crash point. A failed
// compaction leaves the old log authoritative and is tried again a window
// later; it never fails the transition.
func (l *ledger) unlock() {
	if l.appended >= max(2*RetentionWindow, l.liveRecords()) && !l.dur.down() && !l.jrn.Crashed() {
		_ = l.compact()
	}
	l.mu.Unlock()
}

// liveRecords counts the records compact writes.
func (l *ledger) liveRecords() int {
	return 1 + len(l.pending) + l.attempts + l.unresolved + len(l.changes)
}

// compact rewrites the journal to the live index: the sequence floors, the
// pending admissions in key order with their replay attempts (or a poison
// record could reset its clock every checkpoint), the unresolved dead
// letters (spilled ones in the order they left the queue, then queued ones
// in park order, so a restart under the cap queues the ones the hub queued)
// and the change records. The count toward the next compaction restarts
// whether or not this one succeeds.
func (l *ledger) compact() error {
	l.appended = 0
	cp, err := json.Marshal(journalCheckpoint{ExchSeq: l.exchSeq, JrnSeq: l.keySeq})
	if err != nil {
		return err
	}
	live := []journal.Record{{Kind: recCheckpoint, Payload: cp}}
	keys := make([]string, 0, len(l.pending))
	for key := range l.pending {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b string) int { // the padding may be outgrown
		return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b))
	})
	for _, key := range keys {
		a := l.pending[key]
		if payload, err := json.Marshal(&a.req); err == nil {
			live = append(live, journal.Record{Kind: recAdmit, Key: key, Payload: payload})
			for i := 0; i < a.attempts; i++ {
				live = append(live, journal.Record{Kind: recReplay, Key: key})
			}
		}
	}
	for _, e := range slices.Concat(l.spilled, l.dead) {
		if e.rec == nil {
			continue
		}
		if payload, err := json.Marshal(e.rec); err == nil {
			live = append(live, journal.Record{Kind: recComplete, Payload: payload})
		}
	}
	return l.jrn.Compact(append(live, l.changes...))
}

// write appends r unless the journal is down, when the append is skipped
// and reported done: the live index the caller then moves is what the
// re-arm compaction writes, so an outcome reached during the outage is not
// resurrected after it. (A crash before the re-arm replays the stale
// journal and re-delivers at most once, as always.)
func (l *ledger) write(r journal.Record) error {
	if l.dur.down() {
		return nil
	}
	return l.log(r)
}

// log appends r and counts it toward the next compaction.
func (l *ledger) log(r journal.Record) error {
	if err := l.jrn.Append(r); err != nil {
		return err
	}
	l.appended++
	return nil
}

// writeJSON writes a record whose payload is v marshalled.
func (l *ledger) writeJSON(kind, key string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return l.write(journal.Record{Kind: kind, Key: key, Payload: payload})
}

// retire writes admission key's terminal record and drops the admission;
// one the journal refused stays pending, and the next Recover re-delivers
// it at most once. It reports whether the record was written.
func (l *ledger) retire(key string, out journalOutcome) bool {
	if l.jrn == nil || key == "" || l.writeJSON(recComplete, key, out) != nil {
		return false
	}
	if a := l.pending[key]; a != nil {
		l.attempts -= a.attempts
		delete(l.pending, key)
	}
	return true
}

// retain enters ex, finished and off the dead-letter set, at the tail of
// the retention window. Once the window is full the oldest exchange in it
// goes through forget and is returned, for the caller to forget its
// instances.
func (l *ledger) retain(ex *Exchange) *Exchange {
	if len(l.done) < RetentionWindow {
		l.done = append(l.done, ex)
		return nil
	}
	old := l.done[l.next]
	l.done[l.next] = ex
	l.next = (l.next + 1) % RetentionWindow
	l.forget(old)
	return old
}

// forget ages ex out of the retention window: its record leaves the table,
// and with it the snapshot it pinned and its trace.
func (l *ledger) forget(ex *Exchange) {
	delete(l.exchanges, ex.ID)
	l.traces.Forget(ex.ID)
}

// resolve writes e's resolve record, when the hub journals, and drops e,
// releasing its exchange; if the journal refused it, e keeps its record,
// spilled, so a restart reruns it at most once more.
func (l *ledger) resolve(e *deadEntry) *Exchange {
	refused := l.jrn != nil && l.writeJSON(recResolve, "", journalResolvePayload{ExchangeID: e.dl.ExchangeID}) != nil
	l.unlink(e)
	if refused && e.rec != nil {
		l.link(e, dlSpilled)
		return nil
	}
	return l.release(e)
}

// release retains the parked exchange of e, a dead letter that left the
// set for good, if the table holds it, and returns the exchange that aged
// out.
func (l *ledger) release(e *deadEntry) *Exchange {
	ex := l.exchanges[e.dl.ExchangeID]
	if ex == nil || ex.state != exParked || l.byID[ex.ID] != nil {
		return nil
	}
	return l.retain(ex)
}

// enqueue queues e. At the cap one entry goes through evict: the oldest
// queued one (only entries taken by reruns in flight precede it) if the
// journal holds its record and, not being down, can be trusted to keep
// it; otherwise e itself. It returns evict's event and the exchange a
// dropped entry's release aged out.
func (l *ledger) enqueue(e *deadEntry) ([]obs.Event, *Exchange) {
	if l.cap <= 0 || l.queued < l.cap {
		l.link(e, dlQueued)
		return nil, nil
	}
	victim := e
	if l.jrn != nil && !l.dur.down() {
		if old := l.dead[slices.IndexFunc(l.dead, func(d *deadEntry) bool { return d.state == dlQueued })]; old.rec != nil {
			victim = old
		}
	}
	ev, gone := l.evict(victim)
	if victim != e {
		l.link(e, dlQueued)
	}
	return []obs.Event{ev}, gone
}

// evict takes an entry off a full queue (or keeps e off it), spilled if
// the journal holds its record (a later Recover restores it) and dropped
// otherwise, releasing its exchange; its event feeds the DLQEvicted gauge
// of Status().Partners.
func (l *ledger) evict(e *deadEntry) (obs.Event, *Exchange) {
	l.unlink(e)
	var gone *Exchange
	if e.rec != nil {
		l.link(e, dlSpilled)
	} else {
		gone = l.release(e)
	}
	return obs.Event{
		ExchangeID: e.dl.ExchangeID,
		Partner:    e.dl.Partner,
		Flow:       e.dl.Flow,
		Kind:       obs.KindHealth,
		Stage:      obs.StageHealth,
		Step:       obs.StepDLQEvict,
		Err:        e.dl.Reason,
	}, gone
}

// restore recreates a journaled exchange's record in state st, and its
// trace, if its partner is still in the model and no record holds its ID.
func (l *ledger) restore(out *journalOutcome, snap *Snapshot, st exState) *Exchange {
	route, ok := snap.Model.routes[out.Partner]
	if _, exists := l.exchanges[out.ExchangeID]; out.ExchangeID == "" || !ok || exists {
		return nil
	}
	ex := &Exchange{
		ID:       out.ExchangeID,
		Partner:  route.partner,
		Protocol: route.partner.Protocol,
		Backend:  route.partner.Backend,
		Flow:     out.Flow,
		route:    route,
		snap:     snap,
		state:    st,
	}
	l.exchanges[out.ExchangeID] = ex
	l.traces.Open(ex.ID)
	return ex
}

// link enters e, out of the set, in state st at the tail of the queue or
// of the spilled entries; a spilled one lets go of its request, which a
// restart reads back from its record.
func (l *ledger) link(e *deadEntry, st dlState) {
	if st == dlSpilled {
		l.spilled = append(l.spilled, e)
		e.dl.req = nil
	} else {
		l.dead = append(l.dead, e)
		l.queued++
	}
	if e.rec != nil {
		l.unresolved++
	}
	l.byID[e.dl.ExchangeID] = e
	e.state = st
}

// unlink takes e out of the set.
func (l *ledger) unlink(e *deadEntry) {
	switch e.state {
	case dlOut:
		return
	case dlSpilled:
		l.spilled = remove(l.spilled, e)
	case dlQueued:
		l.queued--
		fallthrough
	default:
		l.dead = remove(l.dead, e)
	}
	if e.rec != nil {
		l.unresolved--
	}
	if l.byID[e.dl.ExchangeID] == e {
		delete(l.byID, e.dl.ExchangeID)
	}
	e.state = dlOut
}

// remove deletes e from s in place; the head, where the cap spills,
// Recover restores and `resubmit all` walks, goes in O(1) and leaves no
// reference behind.
func remove(s []*deadEntry, e *deadEntry) []*deadEntry {
	i := slices.Index(s, e)
	if i == 0 {
		s[0] = nil
		return s[1:]
	}
	return slices.Delete(s, i, i+1)
}

// newDeadEntry builds an entry for the outcome, rerunning its request,
// with no record yet.
func newDeadEntry(out *journalOutcome, reason error) *deadEntry {
	e := &deadEntry{dl: DeadLetter{
		ExchangeID: out.ExchangeID,
		Partner:    out.Partner,
		Flow:       out.Flow,
		Protocol:   out.Protocol,
		Reason:     reason,
		At:         time.Now(),
	}}
	if out.Request != nil {
		req := out.Request.toRequest()
		e.dl.req = &req
	}
	return e
}

// outcomeOf is the terminal record of a request whose exchange is ex (nil
// before one existed).
func outcomeOf(ex *Exchange, outcome string, err error) journalOutcome {
	out := journalOutcome{Outcome: outcome}
	if ex != nil {
		out.ExchangeID = ex.ID
		out.Partner = ex.Partner.ID
		out.Flow = ex.Flow
		out.Protocol = ex.Protocol
	}
	if err != nil {
		out.Reason = err.Error()
	}
	return out
}
