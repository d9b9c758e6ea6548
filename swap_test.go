package repro

// Change-management property battery for the hub's versioned config store
// (internal/cfgstore) and hot-swap machinery: under concurrent exchange
// load, randomized hot-swaps (binding re-versions, rule-set changes,
// transform replacements) must never produce a mixed-version exchange.
// Every exchange pins the config snapshot it admitted under and runs all
// of its stages at exactly that epoch's versions; the set of legal
// per-exchange version tuples is derived differentially from an oracle hub
// that applies the identical swap schedule with no concurrent load
// (drain-then-swap), where each epoch's tuple is trivially observable.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"context"

	"repro/internal/cfgstore"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/formats/edi"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/transform"
)

// swapOp is one schedule entry, applicable to any hub so the concurrent
// hub and the drain-then-swap oracle replay the identical schedule.
type swapOp struct {
	name  string
	apply func(h *core.Hub) error
}

// ediPOTransformV2 is a behavior-identical replacement for the EDI→
// normalized PO transformer: what an operator hot-swapping a fixed mapping
// would install. (The property under test is version pinning, not mapping
// output, so the mapping itself is unchanged.)
func ediPOTransformV2() transform.Transformer {
	return transform.Func{
		FromFormat: formats.EDI, ToFormat: formats.Normalized, Type: doc.TypePO,
		Fn: func(native any) (any, error) {
			p, ok := native.(*edi.PO850)
			if !ok {
				return nil, fmt.Errorf("swap_test: EDI PO transform got %T", native)
			}
			return transform.EDIPOToNormalized(p)
		},
	}
}

// swapSchedule generates a seeded random schedule over the three hot-swap
// families: binding re-versions (structural — the stage-version tuple
// changes), partner threshold changes (rules-only) and transform
// replacements (registry-only).
func swapSchedule(rng *rand.Rand, n int) []swapOp {
	protos := []formats.Format{formats.EDI, formats.RosettaNet, formats.OAGIS}
	partners := []string{"TP1", "TP2", "TP3"}
	ops := make([]swapOp, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0, 1: // weighted: structural swaps are the interesting case
			p := protos[rng.Intn(len(protos))]
			ops = append(ops, swapOp{
				name:  fmt.Sprintf("swap-binding:%s", p),
				apply: func(h *core.Hub) error { _, err := h.SwapBinding(p, nil); return err },
			})
		case 2:
			id := partners[rng.Intn(len(partners))]
			thr := float64(10000 + rng.Intn(9)*10000)
			ops = append(ops, swapOp{
				name:  fmt.Sprintf("change-threshold:%s=%v", id, thr),
				apply: func(h *core.Hub) error { _, err := h.ChangePartnerThreshold(id, thr); return err },
			})
		default:
			ops = append(ops, swapOp{
				name:  "swap-transform:EDI-PO",
				apply: func(h *core.Hub) error { _, err := h.SwapTransform(ediPOTransformV2()); return err },
			})
		}
	}
	return ops
}

// stageTuple renders an exchange's observed per-stage workflow versions as
// a canonical comparable string.
func stageTuple(vs map[obs.Stage]int) string {
	keys := make([]string, 0, len(vs))
	for k := range vs {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, vs[obs.Stage(k)])
	}
	return fmt.Sprintf("%v", parts)
}

// swapTestHub assembles the three-protocol hub with healthy backends.
func swapTestHub(t *testing.T, opts ...core.HubOption) *core.Hub {
	t.Helper()
	model, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := core.NewHub(model, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.AddPartner(core.Figure15Partner()); err != nil {
		t.Fatal(err)
	}
	return hub
}

// TestSwapPropertyNoMixedVersions is the hot-swap correctness property:
//
//  1. a live hub serves concurrent exchange load while the seeded swap
//     schedule runs against it — zero swap-attributable failures allowed;
//  2. an oracle hub applies the same schedule with no concurrent load,
//     draining fully before and probing fully after each swap, so its
//     observed stage-version tuples enumerate every legal epoch exactly;
//  3. every concurrent exchange's observed tuple must be one of the
//     oracle's legal tuples for its partner — an exchange whose stages
//     mixed two epochs' versions would produce a tuple no drained epoch
//     ever exhibits;
//  4. both hubs end at the identical config epoch (the schedule is the
//     only source of epoch advancement).
func TestSwapPropertyNoMixedVersions(t *testing.T) {
	defer leakcheck.Check(t)()
	const (
		swaps            = 24
		ordersPerPartner = 50
	)
	seed := int64(7) + chaosSeedOffset()
	schedule := swapSchedule(rand.New(rand.NewSource(seed)), swaps)

	// Oracle: drain-then-swap. With no load in flight, each exchange after
	// a swap trivially runs all stages at the newest epoch, so its tuple is
	// that epoch's legal tuple for its partner.
	oracle := swapTestHub(t)
	defer oracle.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	hubParty := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
	legal := map[string]map[string]bool{} // partner → set of legal tuples
	oracleGen := doc.NewGenerator(seed)
	probe := func() {
		for _, p := range oracle.Model.Partners {
			buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
			res, err := oracle.Do(ctx, core.Request{Kind: core.DocPO, PO: oracleGen.PO(buyer, hubParty)})
			if err != nil {
				t.Fatalf("oracle exchange for %s: %v", p.ID, err)
			}
			if legal[p.ID] == nil {
				legal[p.ID] = map[string]bool{}
			}
			legal[p.ID][stageTuple(oracle.StageVersions(res.Exchange))] = true
		}
	}
	probe() // the seed epoch's tuples
	for _, op := range schedule {
		if err := op.apply(oracle); err != nil {
			t.Fatalf("oracle %s: %v", op.name, err)
		}
		probe()
	}

	// Live hub: the same schedule races concurrent load.
	hub := swapTestHub(t, core.WithShards(4), core.WithWorkersPerShard(4))
	defer hub.Drain(context.Background())

	type sub struct {
		po  *doc.PurchaseOrder
		fut *core.Future
	}
	var (
		mu   sync.Mutex
		subs []sub
	)
	var wg sync.WaitGroup
	for pi, p := range hub.Model.Partners {
		wg.Add(1)
		go func(pi int, p core.TradingPartner) {
			defer wg.Done()
			buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
			g := doc.NewGenerator(seed + int64(1000*pi))
			for i := 0; i < ordersPerPartner; i++ {
				po := g.PO(buyer, hubParty)
				fut, err := hub.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
				if err != nil {
					t.Errorf("submit %s/%d: %v", p.ID, i, err)
					return
				}
				mu.Lock()
				subs = append(subs, sub{po: po, fut: fut})
				mu.Unlock()
			}
		}(pi, p)
	}
	// The swapper races the submitters: a short pause between swaps spreads
	// the epochs across the load window.
	swapErr := make(chan error, 1)
	go func() {
		for _, op := range schedule {
			if err := op.apply(hub); err != nil {
				swapErr <- fmt.Errorf("%s: %w", op.name, err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
		swapErr <- nil
	}()
	wg.Wait()
	if err := <-swapErr; err != nil {
		t.Fatalf("swap schedule against the live hub: %v", err)
	}

	// Property 1: zero swap-attributable failures — every exchange
	// completes with correct correlation despite the swaps racing it.
	minEpoch, maxEpoch := int64(0), hub.ConfigStore().Epoch()
	for i, s := range subs {
		res := s.fut.Result(ctx)
		if res.Err != nil {
			t.Fatalf("submission %d failed under hot-swap load: %v", i, res.Err)
		}
		if res.POA == nil || res.POA.POID != s.po.ID {
			t.Fatalf("submission %d: wrong correlation %+v", i, res.POA)
		}
		// Property 2: no mixed-version exchange — the observed tuple is one
		// the drained oracle exhibited for this partner.
		tuple := stageTuple(hub.StageVersions(res.Exchange))
		partner := res.Exchange.Partner.ID
		if !legal[partner][tuple] {
			t.Fatalf("exchange %s (partner %s, epoch %d) ran mixed config versions %s; legal tuples: %v",
				res.Exchange.ID, partner, res.Exchange.ConfigEpoch(), tuple, keysOf(legal[partner]))
		}
		if e := res.Exchange.ConfigEpoch(); e < minEpoch || e > maxEpoch {
			t.Fatalf("exchange %s pinned config epoch %d outside [%d, %d]", res.Exchange.ID, e, minEpoch, maxEpoch)
		}
	}

	// Property 3: the schedule is the only epoch driver, so both hubs land
	// on the identical epoch and identical active versions.
	if got, want := hub.ConfigStore().Epoch(), oracle.ConfigStore().Epoch(); got != want {
		t.Fatalf("live hub ended at config epoch %d, oracle at %d", got, want)
	}
	hs, os := hub.ConfigStore().Snapshot(), oracle.ConfigStore().Snapshot()
	for _, k := range hub.ConfigStore().Keys() {
		if hv, ov := hs.Version(k.Class, k.Name), os.Version(k.Class, k.Name); hv != ov {
			t.Fatalf("artifact %s active at v%d on the live hub, v%d on the oracle", k, hv, ov)
		}
	}
	t.Logf("%d exchanges across %d swaps (%d epochs), all single-version; final epoch %d",
		len(subs), swaps, maxEpoch+1, maxEpoch)
}

func keysOf(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSwapRollbackRestoresVersion: a rules hot-swap followed by a rollback
// re-activates the earlier version for new admissions — the rolled-back
// threshold governs again — while the config history retains every version.
func TestSwapRollbackRestoresVersion(t *testing.T) {
	defer leakcheck.Check(t)()
	hub := swapTestHub(t)
	defer hub.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// TP1's seed threshold is 55000: a 60000 order needs approval. Raising
	// the threshold to 70000 flips the decision; rolling back flips it back.
	store := hub.ConfigStore()
	v1, _ := store.Active(cfgstore.ClassRules, core.ApprovalRuleSet)
	if _, err := hub.ChangePartnerThreshold("TP1", 70000); err != nil {
		t.Fatal(err)
	}
	v2, _ := store.Active(cfgstore.ClassRules, core.ApprovalRuleSet)
	if v2 != v1+1 {
		t.Fatalf("threshold change activated v%d, want v%d", v2, v1+1)
	}
	dec, err := hub.Model.Rules.Evaluate(core.ApprovalRuleSet, "TP1", "SAP", approval60k())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Result {
		t.Fatal("60000 order still needs approval after raising the threshold to 70000")
	}
	if _, err := hub.Rollback(cfgstore.ClassRules, core.ApprovalRuleSet, v1); err != nil {
		t.Fatal(err)
	}
	if got, _ := store.Active(cfgstore.ClassRules, core.ApprovalRuleSet); got != v1 {
		t.Fatalf("rollback left v%d active, want v%d", got, v1)
	}
	dec, err = hub.Model.Rules.Evaluate(core.ApprovalRuleSet, "TP1", "SAP", approval60k())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Result {
		t.Fatal("60000 order no longer needs approval after rolling the threshold back to 55000")
	}
	// The rolled-back config still serves live traffic.
	g := doc.NewGenerator(11)
	po := g.PO(doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"},
		doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"})
	if _, err := hub.Do(ctx, core.Request{Kind: core.DocPO, PO: po}); err != nil {
		t.Fatalf("round trip after rollback: %v", err)
	}
	if hist := store.History(cfgstore.ClassRules, core.ApprovalRuleSet); len(hist) < 2 {
		t.Fatalf("config history holds %d versions after swap+rollback, want both", len(hist))
	}
}

func approval60k() *doc.PurchaseOrder {
	g := doc.NewGenerator(9)
	return g.POWithAmount(doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"},
		doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}, 60000)
}
