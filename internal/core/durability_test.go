package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/journal"
	"repro/internal/leakcheck"
)

// faultyJournaledHub builds a Figure 14 hub whose journal storage goes
// through a seeded FaultFS, ready for disk-fault drills.
func faultyJournaledHub(t *testing.T, seed int64, opts ...HubOption) (*Hub, *journal.FaultFS) {
	t.Helper()
	ffs := journal.NewFaultFS(nil, seed)
	path := filepath.Join(t.TempDir(), "hub.wal")
	h := newFig14Hub(t, append([]HubOption{
		WithJournal(path),
		WithFsyncPolicy(journal.FsyncAlways),
		WithJournalFS(ffs),
	}, opts...)...)
	return h, ffs
}

// waitDurability polls the hub's durability status until cond accepts it.
func waitDurability(t *testing.T, h *Hub, what string, cond func(*DurabilityStatus) bool) *DurabilityStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ds := h.Status().Durability
		if ds != nil && cond(ds) {
			return ds
		}
		if time.Now().After(deadline) {
			t.Fatalf("durability status never reached %s: %+v", what, ds)
		}
		time.Sleep(time.Millisecond)
	}
}

// Under fail-stop (the default), an admission whose journal append fails
// is rejected with the typed sentinel — and the rejection is not latched:
// the next admission probes the disk again, so a healed disk resumes
// service with no intervention.
func TestFailStopRejectsUnloggableAdmissions(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx := context.Background()
	h, ffs := faultyJournaledHub(t, 21)
	defer h.CloseJournal()
	g := doc.NewGenerator(21)
	if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err != nil {
		t.Fatal(err)
	}

	ffs.Arm(journal.FaultWriteErr)
	_, _, err := roundTrip(h, ctx, g.PO(tp1, seller))
	if !errors.Is(err, ErrJournalUnavailable) {
		t.Fatalf("admission on broken disk: %v, want ErrJournalUnavailable", err)
	}
	ds := h.Status().Durability
	if ds == nil || ds.Mode != "durable" || ds.Policy != FailStop {
		t.Fatalf("fail-stop durability status %+v, want durable/fail-stop (no degraded episode)", ds)
	}
	if ds.RejectedAdmits != 1 || ds.AppendFailures != 1 || ds.LastError == "" {
		t.Fatalf("durability status %+v, want 1 rejection, 1 append failure, a last error", ds)
	}

	ffs.Heal()
	if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err != nil {
		t.Fatalf("admission after disk healed: %v", err)
	}
	if ds := h.Status().Durability; ds.RejectedAdmits != 1 {
		t.Fatalf("healed hub kept rejecting: %+v", ds)
	}
}

// Under the degraded policy the hub keeps serving through a dead disk:
// admissions proceed non-durably, the prober re-arms journaling on a fresh
// compacted segment once writes succeed, and only the exchanges that ran
// durably are replayable by the next incarnation.
func TestDegradedModeServesNonDurablyAndRearms(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx := context.Background()
	h, ffs := faultyJournaledHub(t, 22,
		WithJournalFailurePolicy(FailDegraded),
		WithJournalProbeInterval(2*time.Millisecond))
	path := h.Journal().Path()
	g := doc.NewGenerator(22)
	if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err != nil {
		t.Fatal(err)
	}

	ffs.Arm(journal.FaultWriteErr)
	_, exDegraded, err := roundTrip(h, ctx, g.PO(tp1, seller))
	if err != nil {
		t.Fatalf("degraded hub rejected an admission: %v", err)
	}
	ds := h.Status().Durability
	if ds.Mode != "degraded" || ds.Since == nil || ds.NonDurableAdmits == 0 {
		t.Fatalf("durability status %+v, want a degraded episode with non-durable admits", ds)
	}

	ffs.Heal()
	ds = waitDurability(t, h, "re-armed", func(ds *DurabilityStatus) bool {
		return ds.Mode == "durable" && ds.Rearms == 1
	})
	if ds.Probes == 0 || ds.Since != nil {
		t.Fatalf("re-armed durability status %+v, want probes counted and no episode start", ds)
	}

	// Post-re-arm admissions are durable again on the fresh segment.
	_, exDurable, err := roundTrip(h, ctx, g.PO(tp1, seller))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 || rep.Reenqueued != 0 {
		t.Fatalf("recovery after degraded episode %+v, want exactly the durable exchange restored", rep)
	}
	if _, ok := h2.ExchangeByID(exDurable.ID); !ok {
		t.Fatalf("durable exchange %s not restored", exDurable.ID)
	}
	if _, ok := h2.ExchangeByID(exDegraded.ID); ok {
		t.Fatalf("non-durable exchange %s replayed — degraded admissions must never be", exDegraded.ID)
	}
}

// CloseJournal on a still-degraded hub must stop the background prober:
// leakcheck fails this test if the goroutine outlives the journal.
func TestCloseJournalWhileDegradedStopsProber(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx := context.Background()
	h, ffs := faultyJournaledHub(t, 23,
		WithJournalFailurePolicy(FailDegraded),
		WithJournalProbeInterval(time.Millisecond))
	g := doc.NewGenerator(23)
	ffs.Arm(journal.FaultWriteErr)
	if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err != nil {
		t.Fatal(err)
	}
	if !h.journalDown() {
		t.Fatal("hub did not enter degraded mode")
	}
	// Never healed: the prober is mid-loop when the journal closes.
	if err := h.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// An admission whose replay keeps crashing recovery accumulates journaled
// attempt records; at the threshold Recover parks it on the dead-letter
// queue (durably) instead of crash-looping forever, while admissions under
// the threshold still replay normally.
func TestRecoverParksPoisonedAdmission(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "hub.wal")
	g := doc.NewGenerator(24)

	// Craft the journal a thrice-crashed recovery would leave behind: one
	// admission at the poison threshold, one still under it.
	writeJournal(t, path, append(
		admitRecords(t, "j-00000001", Request{Kind: DocPO, PO: g.PO(tp1, seller)}, poisonThreshold),
		admitRecords(t, "j-00000002", Request{Kind: DocPO, PO: g.PO(tp1, seller)}, poisonThreshold-1)...))

	h := journaledHub(t, path)
	defer h.CloseJournal()
	defer h.StopWorkers()
	rep, err := h.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Poisoned != 1 || rep.Reenqueued != 1 || rep.Recovered != 1 {
		t.Fatalf("recovery report %+v, want 1 poisoned, 1 reenqueued and recovered", rep)
	}
	dls := h.DeadLetters()
	if len(dls) != 1 {
		t.Fatalf("dead-letter queue has %d entries, want the poisoned admission alone", len(dls))
	}
	dl := dls[0]
	if !strings.Contains(dl.Reason.Error(), "poison") || !dl.journaled || dl.req == nil {
		t.Fatalf("poisoned dead letter %+v, want a journaled, replayable poison entry", dl)
	}
	if ds := h.Status().Durability; ds.Poisoned != 1 {
		t.Fatalf("durability status %+v, want 1 poisoned", ds)
	}

	// The parking is durable: the next incarnation sees a resolved pending
	// set and the poisoned entry as an ordinary restorable dead letter.
	if err := h.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	h2 := journaledHub(t, path)
	defer h2.CloseJournal()
	rep2, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Poisoned != 0 || rep2.Reenqueued != 0 || rep2.DeadLetters != 1 {
		t.Fatalf("second recovery %+v, want only the restored dead letter", rep2)
	}
}

// The DLQ spill rule at the cap (satellite: spill pinning): a healthy
// journaled hub spills its oldest journaled entry to journal-only
// retention; a degraded hub must not — journal-only retention cannot be
// trusted when the journal cannot be written — so it rejects the incoming
// entry instead, and spilling resumes after the re-arm.
func TestDLQSpillPinnedWhileJournalDegraded(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx := context.Background()
	h, ffs := faultyJournaledHub(t, 25,
		WithJournalFailurePolicy(FailDegraded),
		WithJournalProbeInterval(2*time.Millisecond),
		WithDLQCap(2))
	defer h.CloseJournal()
	g := doc.NewGenerator(25)

	park := func(id string) {
		h.parkDeadLetter(DeadLetter{
			ExchangeID: id, Partner: tp1.ID,
			Reason: errors.New("drill"), At: time.Now(), journaled: true,
		})
	}
	ids := func() []string {
		var out []string
		for _, dl := range h.DeadLetters() {
			out = append(out, dl.ExchangeID)
		}
		return out
	}
	park("ex-a")
	park("ex-b")

	// Healthy at the cap: the oldest journaled entry spills.
	park("ex-c")
	if got := ids(); len(got) != 2 || got[0] != "ex-b" || got[1] != "ex-c" {
		t.Fatalf("healthy spill left %v, want [ex-b ex-c]", got)
	}

	// ENOSPC drives the hub degraded; the spill arm is now pinned off.
	ffs.ArmENOSPC(0)
	if _, _, err := roundTrip(h, ctx, g.PO(tp1, seller)); err != nil {
		t.Fatalf("degraded hub rejected an admission: %v", err)
	}
	if !h.journalDown() {
		t.Fatal("hub did not enter degraded mode on ENOSPC")
	}
	if ds := h.Status().Durability; !strings.Contains(ds.LastError, "no space left on device") {
		t.Fatalf("durability last error %q, want the ENOSPC cause", ds.LastError)
	}
	park("ex-d")
	if got := ids(); len(got) != 2 || got[0] != "ex-b" || got[1] != "ex-c" {
		t.Fatalf("degraded park changed the queue to %v, want incoming rejected", got)
	}

	// Space freed: the prober re-arms and the spill arm un-pins.
	ffs.Heal()
	waitDurability(t, h, "re-armed", func(ds *DurabilityStatus) bool {
		return ds.Mode == "durable" && ds.Rearms == 1
	})
	park("ex-e")
	if got := ids(); len(got) != 2 || got[0] != "ex-c" || got[1] != "ex-e" {
		t.Fatalf("post-re-arm spill left %v, want [ex-c ex-e]", got)
	}
}

// A hub opened on a rotted journal quarantines the rot, recovers
// everything that was still valid, and surfaces the repair's accounting
// in both the recovery report and the durability status.
func TestRecoverPastMidFileRot(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "hub.wal")
	h1 := journaledHub(t, path)
	g := doc.NewGenerator(26)
	var ids []string
	for i := 0; i < 3; i++ {
		_, ex, err := roundTrip(h1, ctx, g.PO(tp1, seller))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ex.ID)
	}
	if err := h1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Rot the first exchange's complete record: its admit stays valid, so
	// the admission replays as pending; the later exchanges' records sit
	// beyond the rot and must survive it.
	corruptHubRecord(t, path, func(r journal.Record) bool {
		var out journalOutcome
		return r.Kind == recComplete &&
			json.Unmarshal(r.Payload, &out) == nil && out.ExchangeID == ids[0]
	})

	h2 := newFig14Hub(t, WithJournal(path), WithFsyncPolicy(journal.FsyncNever))
	defer h2.CloseJournal()
	defer h2.StopWorkers()
	rep, err := h2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.QuarantinedBytes == 0 {
		t.Fatalf("recovery report %+v, want the quarantined region accounted", rep)
	}
	if rep.Restored != 2 || rep.Reenqueued != 1 {
		t.Fatalf("recovery report %+v, want 2 restored past the rot and 1 replay", rep)
	}
	for _, id := range ids[1:] {
		if _, ok := h2.ExchangeByID(id); !ok {
			t.Fatalf("exchange %s beyond the rot not restored", id)
		}
	}
	if ds := h2.Status().Durability; ds.Corrupt != 1 || ds.QuarantinedBytes != rep.QuarantinedBytes {
		t.Fatalf("durability status %+v, want the scrub surfaced", ds)
	}
}

// corruptHubRecord flips the payload bytes of the first framed record
// matching match in the hub journal at path, leaving the frames around it
// intact.
func corruptHubRecord(t *testing.T, path string, match func(journal.Record) bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := journal.Decode(data)
	off := int64(0)
	for _, r := range recs {
		frame, ferr := journal.Encode(r)
		if ferr != nil {
			t.Fatal(ferr)
		}
		if match(r) {
			for b := off + 8; b < off+int64(len(frame)); b++ {
				data[b] ^= 0xFF
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		off += int64(len(frame))
	}
	t.Fatal("corruptHubRecord: no record matched")
}
