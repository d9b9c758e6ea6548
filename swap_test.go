package repro

// Change-management property battery for the hub's one change path
// (Hub.Apply): under concurrent exchange load, a seeded schedule of live
// changes of every kind — partners added and removed, a back end added,
// binding, private-process and public-process versions, rule and transform
// changes, rollbacks, invoicing and a canary with its settle — must never
// produce an exchange that mixes two snapshots' versions. Every exchange
// runs all of its stages on the snapshot it admitted under; the legal
// per-stage version tuple of each (partner, config epoch, canary arm) is
// derived differentially from an oracle hub that applies the identical
// schedule with no concurrent load, probing after each change.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cfgstore"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/formats/edi"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/transform"
	"repro/internal/wf"
)

// swapOp is one schedule entry, applicable to any hub so the concurrent
// hub and the drain-then-swap oracle replay the identical schedule.
type swapOp struct {
	name   string
	change func() (core.Change, error)
}

func (op swapOp) apply(h *core.Hub) error {
	c, err := op.change()
	if err != nil {
		return err
	}
	_, err = h.Apply(c)
	return err
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

// The population of the property battery: TP1 and TP2 are in the startup
// model; TP3 (a new protocol) and TP4 (an existing protocol, on the back
// end SAP2 added live) join mid-schedule, and TP2 leaves.
var (
	swapParties = []doc.Party{
		{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"},
		{ID: "TP2", Name: "Trading Partner 2", DUNS: "222222222"},
		{ID: "TP3", Name: "Trading Partner 3", DUNS: "333333333"},
		{ID: "TP4", Name: "Trading Partner 4", DUNS: "444444444"},
	}
	tp4 = core.TradingPartner{ID: "TP4", Name: "Trading Partner 4", DUNS: "444444444",
		Protocol: formats.EDI, Backend: "SAP2", ApprovalThreshold: 25000}
)

func fixed(c core.Change) func() (core.Change, error) {
	return func() (core.Change, error) { return c, nil }
}

func newVersion(build func() (*wf.TypeDef, error)) func() (core.Change, error) {
	return func() (core.Change, error) {
		t, err := build()
		return core.NewTypeVersion{Type: t}, err
	}
}

// swapSchedule generates a seeded schedule of n changes: the one-off kinds
// at fixed places (add TP3 on a new protocol, add the back end SAP2 and
// TP4 on it, start a canary on TP1's binding and later promote it, enable
// invoicing, remove TP2), and between them random repeatable kinds valid
// at their place — binding, audit-step and acknowledgment versions,
// threshold changes, transform swaps and rollbacks.
func swapSchedule(rng *rand.Rand, n int) []swapOp {
	protos := []formats.Format{formats.EDI, formats.RosettaNet}
	partners := []string{"TP1", "TP2"}
	oneOff := map[int]swapOp{
		2: {"add-partner:TP3", fixed(core.AddPartner{Partner: core.Figure15Partner()})},
		5: {"add-backend:SAP2", fixed(core.AddBackend{Backend: core.Backend{Name: "SAP2", Format: formats.SAPIDoc}})},
		7: {"add-partner:TP4", fixed(core.AddPartner{Partner: tp4})},
		9: {"canary:TP1", func() (core.Change, error) {
			t, err := core.BuildBinding(formats.EDI)
			return core.Canary{Partner: "TP1", Candidate: t, Fraction: 0.5}, err
		}},
		13: {"enable-invoicing", fixed(core.EnableInvoicing{})},
		16: {"settle-canary:TP1", fixed(core.SettleCanary{Partner: "TP1", Verdict: cfgstore.CanaryPromote})},
		20: {"remove-partner:TP2", fixed(core.RemovePartner{ID: "TP2"})},
	}
	ops := make([]swapOp, 0, n)
	for i := 0; i < n; i++ {
		if op, ok := oneOff[i]; ok {
			ops = append(ops, op)
			switch op.name {
			case "add-partner:TP3":
				protos = append(protos, formats.OAGIS)
				partners = append(partners, "TP3")
			case "add-partner:TP4":
				partners = append(partners, "TP4")
			case "remove-partner:TP2":
				partners = []string{"TP1", "TP3", "TP4"}
				protos = []formats.Format{formats.EDI, formats.OAGIS}
			}
			continue
		}
		p := protos[rng.Intn(len(protos))]
		switch rng.Intn(8) {
		case 0, 1: // weighted: structural swaps are the interesting case
			ops = append(ops, swapOp{"swap-binding:" + string(p), newVersion(func() (*wf.TypeDef, error) { return core.BuildBinding(p) })})
		case 2:
			ops = append(ops, swapOp{"audit-step", newVersion(core.BuildPrivateProcessWithAudit)})
		case 3:
			ops = append(ops, swapOp{"transport-acks:" + string(p), newVersion(func() (*wf.TypeDef, error) { return core.BuildPublicProcessWithAcks(p) })})
		case 4:
			id := partners[rng.Intn(len(partners))]
			thr := float64(10000 + rng.Intn(9)*10000)
			ops = append(ops, swapOp{fmt.Sprintf("change-threshold:%s=%v", id, thr), fixed(core.ChangeThreshold{PartnerID: id, Threshold: thr})})
		case 5:
			ops = append(ops, swapOp{"swap-transform:EDI-PO", func() (core.Change, error) {
				return core.SwapTransform{Transformer: ediPOTransformV2()}, nil
			}})
		default:
			targets := []core.Rollback{
				{Class: cfgstore.ClassBinding, Name: core.BindingName(formats.EDI), Version: 1},
				{Class: cfgstore.ClassPrivateProcess, Name: core.PrivateProcessName, Version: 1},
				{Class: cfgstore.ClassTransform, Name: "EDI-X12→Normalized:PurchaseOrder", Version: 1},
			}
			rb := targets[rng.Intn(len(targets))]
			ops = append(ops, swapOp{fmt.Sprintf("rollback:%s@1", rb.Name), fixed(rb)})
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

// swapTestHub assembles the Figure 14 hub with healthy backends. Canaries
// settle only through the schedule, so both hubs stay on the same epochs.
func swapTestHub(t *testing.T, opts ...core.HubOption) *core.Hub {
	t.Helper()
	model, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, core.WithCanaryPolicy(cfgstore.CanaryPolicy{MinSamples: 1 << 30}))
	hub, err := core.NewHub(model, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return hub
}

// snapshotKey identifies one snapshot's view of one partner.
type snapshotKey struct {
	partner string
	epoch   int64
	arm     bool
}

// TestSwapPropertyNoMixedVersions is the live-change correctness property:
//
//  1. a live hub serves concurrent exchange load while the seeded change
//     schedule runs against it — no change-attributable failure: an order
//     either completes or, for a partner not in the model when it was
//     admitted (TP3 and TP4 before they join, TP2 after it leaves), fails
//     with ErrUnknownPartner, never on a type that is not deployed;
//  2. an oracle hub applies the same schedule with no concurrent load,
//     probing every partner of the model after each change, on both canary
//     arms while a canary runs, so it observes the stage-version tuple of
//     every (partner, config epoch, canary arm);
//  3. every concurrent exchange's tuple must be the oracle's tuple for its
//     partner, admission epoch and arm — the versions of exactly one
//     snapshot; an exchange whose stages mixed two snapshots would not
//     match;
//  4. both hubs end at the identical config epoch and active versions (the
//     schedule is the only source of epoch advancement).
func TestSwapPropertyNoMixedVersions(t *testing.T) {
	defer leakcheck.Check(t)()
	const (
		swaps            = 26
		ordersPerPartner = 50
	)
	seed := int64(7) + chaosSeedOffset()
	schedule := swapSchedule(rand.New(rand.NewSource(seed)), swaps)

	oracle := swapTestHub(t)
	defer oracle.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	hubParty := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
	legal := map[snapshotKey]string{}
	oracleGen := doc.NewGenerator(seed)
	probe := func(after string) {
		snap := oracle.Snapshot()
		for _, p := range snap.Model.Partners {
			_, canary := oracle.ActiveCanary(p.ID)
			seen := map[bool]bool{}
			for try := 0; len(seen) < 2 && try < 64; try++ {
				buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
				res, err := oracle.Do(ctx, core.Request{Kind: core.DocPO, PO: oracleGen.PO(buyer, hubParty)})
				if err != nil {
					t.Fatalf("oracle exchange for %s after %s: %v", p.ID, after, err)
				}
				ex := res.Exchange
				legal[snapshotKey{p.ID, ex.ConfigEpoch(), ex.CanaryArm()}] = stageTuple(oracle.StageVersions(ex))
				seen[ex.CanaryArm()] = true
				if !canary {
					break
				}
			}
			if canary && len(seen) < 2 {
				t.Fatalf("oracle probes of %s after %s never reached both canary arms", p.ID, after)
			}
		}
	}
	probe("startup")
	for _, op := range schedule {
		if err := op.apply(oracle); err != nil {
			t.Fatalf("oracle %s: %v", op.name, err)
		}
		probe(op.name)
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
	for pi, buyer := range swapParties {
		wg.Add(1)
		go func(pi int, buyer doc.Party) {
			defer wg.Done()
			g := doc.NewGenerator(seed + int64(1000*pi))
			for i := 0; i < ordersPerPartner; i++ {
				po := g.PO(buyer, hubParty)
				fut, err := hub.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
				if err != nil {
					t.Errorf("submit %s/%d: %v", buyer.ID, i, err)
					return
				}
				mu.Lock()
				subs = append(subs, sub{po: po, fut: fut})
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
			}
		}(pi, buyer)
	}
	// The changer races the submitters: a short pause between changes
	// spreads the epochs across the load window.
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
		t.Fatalf("change schedule against the live hub: %v", err)
	}

	unknown := map[string]int{}
	for i, s := range subs {
		res := s.fut.Result(ctx)
		if res.Err != nil {
			// Property 1: only a partner outside the model at admission
			// may fail, and only as unknown.
			if errors.Is(res.Err, core.ErrUnknownPartner) && s.po.Buyer.ID != "TP1" {
				unknown[s.po.Buyer.ID]++
				continue
			}
			t.Fatalf("submission %d (%s) failed under live changes: %v", i, s.po.Buyer.ID, res.Err)
		}
		if res.POA == nil || res.POA.POID != s.po.ID {
			t.Fatalf("submission %d: wrong correlation %+v", i, res.POA)
		}
		// Properties 2 and 3: the exchange ran exactly one snapshot's
		// versions.
		ex := res.Exchange
		key := snapshotKey{ex.Partner.ID, ex.ConfigEpoch(), ex.CanaryArm()}
		want, ok := legal[key]
		if !ok {
			t.Fatalf("exchange %s ran on partner %s at epoch %d (canary arm %v), a snapshot the oracle never had",
				ex.ID, key.partner, key.epoch, key.arm)
		}
		if got := stageTuple(hub.StageVersions(ex)); got != want {
			t.Fatalf("exchange %s (partner %s, epoch %d, canary arm %v) ran versions %s; its snapshot has %s",
				ex.ID, key.partner, key.epoch, key.arm, got, want)
		}
	}

	// Property 4: the schedule is the only epoch driver, so both hubs land
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
	t.Logf("%d exchanges across %d changes (%d legal snapshot views), all single-snapshot; unknown-partner refusals %v; final epoch %d",
		len(subs), swaps, len(legal), unknown, hub.ConfigStore().Epoch())
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
	v1, _ := hub.ConfigStore().Active(cfgstore.ClassRules, core.ApprovalRuleSet)
	if _, err := hub.Apply(core.ChangeThreshold{PartnerID: "TP1", Threshold: 70000}); err != nil {
		t.Fatal(err)
	}
	v2, _ := hub.ConfigStore().Active(cfgstore.ClassRules, core.ApprovalRuleSet)
	if v2 != v1+1 {
		t.Fatalf("threshold change activated v%d, want v%d", v2, v1+1)
	}
	dec, err := hub.Snapshot().Model.Rules.Evaluate(core.ApprovalRuleSet, "TP1", "SAP", approval60k())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Result {
		t.Fatal("60000 order still needs approval after raising the threshold to 70000")
	}
	if _, err := hub.Apply(core.Rollback{Class: cfgstore.ClassRules, Name: core.ApprovalRuleSet, Version: v1}); err != nil {
		t.Fatal(err)
	}
	if got, _ := hub.ConfigStore().Active(cfgstore.ClassRules, core.ApprovalRuleSet); got != v1 {
		t.Fatalf("rollback left v%d active, want v%d", got, v1)
	}
	dec, err = hub.Snapshot().Model.Rules.Evaluate(core.ApprovalRuleSet, "TP1", "SAP", approval60k())
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
	if hist := hub.ConfigStore().History(cfgstore.ClassRules, core.ApprovalRuleSet); len(hist) < 2 {
		t.Fatalf("config history holds %d versions after swap+rollback, want both", len(hist))
	}
}

func approval60k() *doc.PurchaseOrder {
	g := doc.NewGenerator(9)
	return g.POWithAmount(doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"},
		doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}, 60000)
}
