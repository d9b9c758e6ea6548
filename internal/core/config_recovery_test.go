package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cfgstore"
	"repro/internal/doc"
	"repro/internal/formats"
)

// activeSet captures every managed artifact's active version.
func activeSet(h *Hub) map[cfgstore.Key]int {
	out := map[cfgstore.Key]int{}
	for _, k := range h.ConfigStore().Keys() {
		if v, ok := h.ConfigStore().Active(k.Class, k.Name); ok {
			out[k] = v
		}
	}
	return out
}

// swapBinding applies a binding re-version to the live hub and returns the
// version it registered.
func swapBinding(t *testing.T, h *Hub, p formats.Format) int {
	t.Helper()
	bind, err := BuildBinding(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := h.Apply(NewTypeVersion{Type: bind})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Versions[0].Version
}

// TestConfigRecoveryRestoresEpoch is the crash-point drill of the change
// journal: a hub applies a run of hot-swaps and crashes (abandoned
// un-closed, exactly as a dead process leaves its journal); the next
// incarnation must restore the exact pre-crash config epoch and
// active-version set before Recover even runs, and still serve exchanges
// on the journaled type bodies.
func TestConfigRecoveryRestoresEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	hub1 := journaledHub(t, path)
	swapBinding(t, hub1, formats.EDI)
	swapBinding(t, hub1, formats.EDI)
	if _, err := hub1.Apply(ChangeThreshold{PartnerID: "TP2", Threshold: 90000}); err != nil {
		t.Fatal(err)
	}
	wantEpoch := hub1.ConfigStore().Epoch()
	wantActive := activeSet(hub1)
	if wantEpoch == 0 || len(wantActive) == 0 {
		t.Fatalf("precondition: epoch %d, %d artifacts", wantEpoch, len(wantActive))
	}
	// hub1 is abandoned un-closed, as a crash would leave it.

	hub2 := journaledHub(t, path)
	defer hub2.CloseJournal()
	if got := hub2.ConfigStore().Epoch(); got != wantEpoch {
		t.Fatalf("restored config epoch %d, want pre-crash %d", got, wantEpoch)
	}
	for k, want := range wantActive {
		if got, _ := hub2.ConfigStore().Active(k.Class, k.Name); got != want {
			t.Fatalf("artifact %s restored at v%d, want pre-crash v%d", k, got, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := hub2.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	// The swapped binding's v3 body came back with its change record.
	if !hub2.Engine.Store().HasType(BindingName(formats.EDI), 3) {
		t.Fatal("the replayed binding v3 is not deployed")
	}
	g := doc.NewGenerator(41)
	po := g.PO(doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"},
		doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"})
	if _, err := hub2.Do(ctx, Request{Kind: DocPO, PO: po}); err != nil {
		t.Fatalf("round trip after config recovery: %v", err)
	}
	// A further swap continues the version and epoch sequences monotonically.
	if v := swapBinding(t, hub2, formats.EDI); v != 4 {
		t.Fatalf("post-recovery swap assigned v%d, want v4 (history v1..v3 restored)", v)
	}
	if got := hub2.ConfigStore().Epoch(); got != wantEpoch+1 {
		t.Fatalf("post-recovery swap moved the epoch to %d, want %d", got, wantEpoch+1)
	}
}

// TestConfigRecoveryCheckpointPreservesEpoch: compaction keeps every change
// record the replay needs, so a checkpoint followed by more swaps and a
// crash still recovers the exact epoch — the compacted history is not an
// epoch reset.
func TestConfigRecoveryCheckpointPreservesEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	hub1 := journaledHub(t, path)
	swapBinding(t, hub1, formats.RosettaNet)
	if err := hub1.CheckpointJournal(); err != nil {
		t.Fatal(err)
	}
	swapBinding(t, hub1, formats.RosettaNet)
	wantEpoch := hub1.ConfigStore().Epoch()
	wantActive := activeSet(hub1)
	// Crash: abandoned un-closed.

	hub2 := journaledHub(t, path)
	defer hub2.CloseJournal()
	if got := hub2.ConfigStore().Epoch(); got != wantEpoch {
		t.Fatalf("epoch %d after checkpoint+swap crash, want %d", got, wantEpoch)
	}
	for k, want := range wantActive {
		if got, _ := hub2.ConfigStore().Active(k.Class, k.Name); got != want {
			t.Fatalf("artifact %s restored at v%d, want v%d", k, got, want)
		}
	}
}

// TestConfigRecoveryTornTail: a config record torn mid-frame at the journal
// tail (the crash hit during the write) must not block recovery — the torn
// bytes are dropped, the store converges on the last intact record's state,
// and the hub keeps serving and swapping.
func TestConfigRecoveryTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	hub1 := journaledHub(t, path)
	swapBinding(t, hub1, formats.EDI)
	midEpoch := hub1.ConfigStore().Epoch()
	// The RosettaNet swap is the journal's final record; tearing its frame
	// simulates a crash mid-append.
	swapBinding(t, hub1, formats.RosettaNet)
	hub1.CloseJournal()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	hub2 := journaledHub(t, path)
	defer hub2.CloseJournal()
	if hub2.Journal().Stats().TornBytes == 0 {
		t.Fatal("reopen reported no torn bytes from a torn tail")
	}
	if got := hub2.ConfigStore().Epoch(); got != midEpoch {
		t.Fatalf("epoch %d after torn tail, want %d (the last intact record)", got, midEpoch)
	}
	// The torn swap never happened: RosettaNet's binding is active at v1 and
	// the version number is free for the next swap.
	if got, _ := hub2.ConfigStore().Active(cfgstore.ClassBinding, BindingName(formats.RosettaNet)); got != 1 {
		t.Fatalf("RosettaNet binding active at v%d after torn tail, want v1", got)
	}
	if v := swapBinding(t, hub2, formats.RosettaNet); v != 2 {
		t.Fatalf("post-tear swap assigned v%d, want v2", v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	g := doc.NewGenerator(43)
	po := g.PO(doc.Party{ID: "TP2", Name: "Trading Partner 2", DUNS: "222222222"},
		doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"})
	if _, err := hub2.Do(ctx, Request{Kind: DocPO, PO: po}); err != nil {
		t.Fatalf("round trip after torn-tail recovery: %v", err)
	}
}
