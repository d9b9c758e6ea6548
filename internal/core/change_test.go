package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cfgstore"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/journal"
	"repro/internal/rules"
	"repro/internal/transform"
	"repro/internal/wf"
)

// restartProbe is what a hub restarted on its journal must decide exactly
// as it did before the crash.
type restartProbe struct {
	Epoch  int64
	Active map[cfgstore.Key]int
	// Decisions is each partner's approval (and, with invoicing on,
	// review) decision at fixed amounts.
	Decisions map[string]string
	// Routes is each partner's route: its type names at their active
	// versions.
	Routes map[string]string
	// Stages is the per-stage versions and canary arm of one fixed TP1
	// order.
	Stages string
	// Canaries lists the running canaries.
	Canaries []string
}

var probeAmounts = []float64{5000, 30000, 45000, 60000, 100000, 250000}

// probeHub reads a hub's restart probe; it runs one TP1 order.
func probeHub(t *testing.T, h *Hub) restartProbe {
	t.Helper()
	snap := h.Snapshot()
	m := snap.Model
	p := restartProbe{
		Epoch:     snap.Epoch(),
		Active:    activeSet(h),
		Decisions: map[string]string{},
		Routes:    map[string]string{},
	}
	for _, tp := range m.Partners {
		var b strings.Builder
		for _, a := range probeAmounts {
			po := &doc.PurchaseOrder{Lines: []doc.Line{{Quantity: 1, UnitPrice: a}}}
			d, err := m.Rules.Evaluate(ApprovalRuleSet, tp.ID, tp.Backend, po)
			fmt.Fprintf(&b, "approve@%v=%v/%v ", a, d.Result, err)
			if m.InvoicePrivate != nil {
				inv := &doc.Invoice{Lines: []doc.InvoiceLine{{Quantity: 1, UnitPrice: a}}}
				d, err := m.Rules.Evaluate(InvoiceReviewRuleSet, tp.ID, tp.Backend, inv)
				fmt.Fprintf(&b, "review@%v=%v/%v ", a, d.Result, err)
			}
		}
		p.Decisions[tp.ID] = b.String()
		r := m.routes[tp.ID]
		names := []string{r.publicName, r.bindingName, PrivateProcessName, r.appBinding}
		if m.InvoicePrivate != nil {
			names = append(names, r.invPublicName, r.invBindingName, InvoicePrivateProcessName, r.invAppBinding)
		}
		for i, n := range names {
			names[i] = fmt.Sprintf("%s@%d", n, snap.cfg.Version(classOf(n), n))
		}
		p.Routes[tp.ID] = strings.Join(names, " ")
		if c, ok := h.ActiveCanary(tp.ID); ok {
			p.Canaries = append(p.Canaries, fmt.Sprintf("%s %s v%d/v%d %v", c.Partner, c.Name, c.Incumbent, c.Candidate, c.Fraction))
		}
	}
	po := doc.NewGenerator(77).POWithAmount(tp1, seller, 60000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := h.Do(ctx, Request{Kind: DocPO, PO: po})
	if err != nil {
		t.Fatalf("probe order: %v", err)
	}
	vs := h.StageVersions(res.Exchange)
	stages := make([]string, 0, len(vs))
	for st, v := range vs {
		stages = append(stages, fmt.Sprintf("%s=%d", st, v))
	}
	sort.Strings(stages)
	p.Stages = fmt.Sprintf("%v arm=%v", stages, res.Exchange.CanaryArm())
	return p
}

// restartHub opens a second hub on the journal at path, built on the same
// startup model (Figure 14), and recovers it.
func restartHub(t *testing.T, path string) (*Hub, RecoveryReport) {
	t.Helper()
	h := journaledHub(t, path, WithCanaryPolicy(cfgstore.CanaryPolicy{MinSamples: 1 << 30}))
	t.Cleanup(func() { h.CloseJournal() })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := h.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return h, rep
}

func mustApply(t *testing.T, h *Hub, cs ...Change) {
	t.Helper()
	for _, c := range cs {
		if _, err := h.Apply(c); err != nil {
			t.Fatalf("%s: %v", c.kind(), err)
		}
	}
}

func typeVersion(t *testing.T, build func() (*wf.TypeDef, error)) Change {
	t.Helper()
	td, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return NewTypeVersion{Type: td}
}

// TestRestartDifferential holds each change kind to the durability
// contract: a journaled Figure 14 hub applies the change and is abandoned
// without closing its journal, as a crash leaves it; a second hub opened on
// the same journal and the same startup model must reproduce the probe set
// — every partner's approval decisions at fixed amounts, every partner's
// route at its active versions, the per-stage versions of a fixed order,
// the running canaries, the config epoch and the active-version set.
func TestRestartDifferential(t *testing.T) {
	tp9 := TradingPartner{ID: "TP9", Name: "Trading Partner 9", DUNS: "999", Protocol: formats.EDI, Backend: "SAP", ApprovalThreshold: 30000}
	tp4 := TradingPartner{ID: "TP4", Name: "Trading Partner 4", DUNS: "444", Protocol: formats.RosettaNet, Backend: "SAP2", ApprovalThreshold: 20000}
	binding := func() (*wf.TypeDef, error) { return BuildBinding(formats.EDI) }
	cases := []struct {
		name    string
		changes func(t *testing.T) []Change
		// check runs on the restarted hub after the probe matched.
		check func(t *testing.T, h *Hub)
	}{
		{"add-partner/existing-protocol", func(t *testing.T) []Change {
			return []Change{AddPartner{Partner: tp9}}
		}, func(t *testing.T, h *Hub) {
			// The live AddPartner survives: TP9's order runs.
			po := doc.NewGenerator(9).POWithAmount(doc.Party{ID: "TP9", Name: "TP9", DUNS: "999"}, seller, 100)
			if _, _, err := roundTrip(h, context.Background(), po); err != nil {
				t.Fatalf("TP9 order after restart: %v", err)
			}
		}},
		{"add-partner/new-protocol", func(t *testing.T) []Change {
			return []Change{AddPartner{Partner: Figure15Partner()}}
		}, nil},
		{"remove-partner", func(t *testing.T) []Change {
			return []Change{RemovePartner{ID: "TP2"}}
		}, nil},
		{"add-backend", func(t *testing.T) []Change {
			return []Change{AddBackend{Backend: Backend{Name: "SAP2", Format: formats.SAPIDoc}}, AddPartner{Partner: tp4}}
		}, nil},
		{"change-threshold", func(t *testing.T) []Change {
			return []Change{ChangeThreshold{PartnerID: "TP2", Threshold: 200000}}
		}, func(t *testing.T, h *Hub) {
			// The TP2 probe: a 100,000 order needs no approval after the
			// restart either.
			po := &doc.PurchaseOrder{Lines: []doc.Line{{Quantity: 1, UnitPrice: 100000}}}
			d, err := h.Snapshot().Model.Rules.Evaluate(ApprovalRuleSet, "TP2", "Oracle", po)
			if err != nil || d.Result {
				t.Fatalf("TP2 at 100000 after restart: approval %v, %v; want none", d.Result, err)
			}
			if p, _ := h.Snapshot().Model.PartnerByID("TP2"); p.ApprovalThreshold != 200000 {
				t.Fatalf("TP2's record holds threshold %v, want 200000", p.ApprovalThreshold)
			}
		}},
		{"new-type-version/binding", func(t *testing.T) []Change {
			return []Change{typeVersion(t, binding), typeVersion(t, binding)}
		}, nil},
		{"new-type-version/audit", func(t *testing.T) []Change {
			return []Change{typeVersion(t, BuildPrivateProcessWithAudit)}
		}, nil},
		{"new-type-version/acks", func(t *testing.T) []Change {
			return []Change{typeVersion(t, func() (*wf.TypeDef, error) { return BuildPublicProcessWithAcks(formats.EDI) })}
		}, nil},
		{"enable-invoicing", func(t *testing.T) []Change {
			return []Change{EnableInvoicing{}, AddPartner{Partner: Figure15Partner()}}
		}, nil},
		{"rollback/rules", func(t *testing.T) []Change {
			return []Change{ChangeThreshold{PartnerID: "TP1", Threshold: 70000}, Rollback{Class: cfgstore.ClassRules, Name: ApprovalRuleSet, Version: 1}}
		}, nil},
		{"rollback/binding", func(t *testing.T) []Change {
			return []Change{typeVersion(t, binding), Rollback{Class: cfgstore.ClassBinding, Name: BindingName(formats.EDI), Version: 1}}
		}, nil},
		{"canary", func(t *testing.T) []Change {
			cand, _ := BuildBinding(formats.EDI)
			return []Change{Canary{Partner: "TP1", Candidate: cand, Fraction: 0.5}}
		}, nil},
		{"settle-canary", func(t *testing.T) []Change {
			cand, _ := BuildBinding(formats.EDI)
			return []Change{Canary{Partner: "TP1", Candidate: cand, Fraction: 0.5}, SettleCanary{Partner: "TP1", Verdict: cfgstore.CanaryPromote}}
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "hub.wal")
			hub1 := journaledHub(t, path, WithCanaryPolicy(cfgstore.CanaryPolicy{MinSamples: 1 << 30}))
			mustApply(t, hub1, tc.changes(t)...)
			want := probeHub(t, hub1)
			// hub1 is abandoned un-closed, as a crash would leave it.

			hub2, rep := restartHub(t, path)
			if len(rep.Unrebuildable) != 0 {
				t.Fatalf("restart left changes out: %v", rep.Unrebuildable)
			}
			if got := probeHub(t, hub2); !reflect.DeepEqual(got, want) {
				t.Fatalf("restarted hub decides differently:\n got %+v\nwant %+v", got, want)
			}
			if tc.check != nil {
				tc.check(t, hub2)
			}
		})
	}
}

// TestRestartDifferentialCheckpoint: a checkpoint keeps every change record
// the replay needs, so changes before and after it both survive the crash.
func TestRestartDifferentialCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	hub1 := journaledHub(t, path)
	mustApply(t, hub1, AddPartner{Partner: Figure15Partner()}, ChangeThreshold{PartnerID: "TP2", Threshold: 200000})
	if err := hub1.CheckpointJournal(); err != nil {
		t.Fatal(err)
	}
	mustApply(t, hub1, EnableInvoicing{}, typeVersion(t, BuildPrivateProcessWithAudit))
	want := probeHub(t, hub1)

	hub2, _ := restartHub(t, path)
	if got := probeHub(t, hub2); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart after a checkpoint:\n got %+v\nwant %+v", got, want)
	}
}

// TestRestartDifferentialTornChange: a change record torn at the journal's
// tail drops that change only; the hub restarts as it was before it.
func TestRestartDifferentialTornChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	hub1 := journaledHub(t, path)
	mustApply(t, hub1, AddPartner{Partner: Figure15Partner()})
	want := probeHub(t, hub1)
	mustApply(t, hub1, ChangeThreshold{PartnerID: "TP1", Threshold: 1})
	// The probe order's records follow the threshold change: tear the
	// change itself by cutting the journal back to inside its frame.
	hub1.CloseJournal()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := strings.LastIndex(string(data), `"kind":"change-threshold"`)
	if at < 0 {
		t.Fatal("no change-threshold record in the journal")
	}
	if err := os.WriteFile(path, data[:at], 0o644); err != nil {
		t.Fatal(err)
	}

	hub2, _ := restartHub(t, path)
	if hub2.Journal().Stats().TornBytes == 0 {
		t.Fatal("reopen reported no torn bytes")
	}
	got := probeHub(t, hub2)
	// The probe order of hub1 ran before the tear; hub2 repeats it.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("torn change record:\n got %+v\nwant %+v", got, want)
	}
}

// TestRestartUnrebuildableChanges: a swapped transform is Go code, and a
// pointer-only config record of the earlier journal format names no body.
// Recover reports each, and the version it names is not active after the
// restart; every other change still replays.
func TestRestartUnrebuildableChanges(t *testing.T) {
	t.Run("swap-transform", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "hub.wal")
		hub1 := journaledHub(t, path)
		swap := SwapTransform{Transformer: transform.Func{
			FromFormat: formats.EDI, ToFormat: formats.Normalized, Type: doc.TypePO,
			Fn: func(native any) (any, error) { return hub1.reg.ToNormalized(formats.EDI, doc.TypePO, native) },
		}}
		mustApply(t, hub1, swap, AddPartner{Partner: Figure15Partner()})
		key := xformKey(formats.EDI, formats.Normalized, doc.TypePO)
		if v, _ := hub1.ConfigStore().Active(cfgstore.ClassTransform, key); v != 2 {
			t.Fatalf("swap activated v%d, want v2", v)
		}

		hub2, rep := restartHub(t, path)
		if len(rep.Unrebuildable) != 1 || !strings.Contains(rep.Unrebuildable[0], key+" v2") {
			t.Fatalf("Recover reported %q, want the %s v2 swap", rep.Unrebuildable, key)
		}
		if v, _ := hub2.ConfigStore().Active(cfgstore.ClassTransform, key); v != 1 {
			t.Fatalf("unrebuildable transform active at v%d after restart, want v1", v)
		}
		if _, ok := hub2.Snapshot().Model.PartnerByID("TP3"); !ok {
			t.Fatal("the change after the unrebuildable one did not replay")
		}
		probeHub(t, hub2)
	})
	t.Run("pointer-only-config-record", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "hub.wal")
		j, err := journal.Open(path, journal.Options{Fsync: journal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for _, payload := range []string{
			`{"epoch":31,"action":"register","class":"rules","name":"check-need-for-approval","version":1,"note":"seed"}`,
			`{"epoch":41,"action":"register","class":"rules","name":"check-need-for-approval","version":2,"note":"swap"}`,
		} {
			if err := j.Append(journal.Record{Kind: recConfig, Payload: []byte(payload)}); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()

		hub, rep := restartHub(t, path)
		if len(rep.Unrebuildable) != 1 || !strings.Contains(rep.Unrebuildable[0], "rules:check-need-for-approval v2") {
			t.Fatalf("Recover reported %q, want the rules v2 pointer only", rep.Unrebuildable)
		}
		if v, _ := hub.ConfigStore().Active(cfgstore.ClassRules, ApprovalRuleSet); v != 1 {
			t.Fatalf("rules active at v%d, want v1", v)
		}
	})
}

// TestFailStopRefusesUnjournaledChange: under FailStop a change whose
// record the journal refuses is refused, and none of it becomes active.
func TestFailStopRefusesUnjournaledChange(t *testing.T) {
	ffs := journal.NewFaultFS(nil, 5)
	h := newFig14Hub(t, WithJournal(filepath.Join(t.TempDir(), "hub.wal")), WithJournalFS(ffs), WithFsyncPolicy(journal.FsyncAlways))
	defer h.CloseJournal()
	before := h.Snapshot()
	ffs.Arm(journal.FaultWriteErr)
	_, err := h.Apply(AddPartner{Partner: Figure15Partner()})
	if !errors.Is(err, ErrJournalUnavailable) {
		t.Fatalf("Apply with a refusing journal: %v, want ErrJournalUnavailable", err)
	}
	if h.Snapshot() != before {
		t.Fatal("a refused change published a snapshot")
	}
	if _, ok := h.Snapshot().Model.PartnerByID("TP3"); ok {
		t.Fatal("a refused change added its partner")
	}
}

// TestInvoicingCoversLaterPartnersAndBackends: a partner or back end added
// after EnableInvoicing brings its invoice artifacts too — the review rule,
// a new protocol's invoice public process and binding, a new back end's
// invoice application binding — and removing a partner removes its review
// rule. It also holds the invoice routes of a partner that ran orders
// before invoicing was enabled.
func TestInvoicingCoversLaterPartnersAndBackends(t *testing.T) {
	h := newFig14Hub(t)
	ctx := context.Background()
	g := doc.NewGenerator(61)
	early := g.PO(tp1, seller)
	if _, _, err := roundTrip(h, ctx, early); err != nil {
		t.Fatal(err)
	}
	mustApply(t, h, EnableInvoicing{})
	if _, _, err := invoiceFor(h, ctx, "TP1", early.ID); err != nil {
		t.Fatalf("invoice of an order run before invoicing: %v", err)
	}
	mustApply(t, h,
		AddPartner{Partner: Figure15Partner()},
		AddBackend{Backend: Backend{Name: "SAP2", Format: formats.SAPIDoc}},
		AddPartner{Partner: TradingPartner{ID: "TP4", Name: "TP4", Protocol: formats.RosettaNet, Backend: "SAP2", ApprovalThreshold: 5000}})
	tp4 := doc.Party{ID: "TP4", Name: "TP4", DUNS: "4"}
	for _, buyer := range []doc.Party{tp3, tp4} {
		po := g.PO(buyer, seller)
		if _, _, err := roundTrip(h, ctx, po); err != nil {
			t.Fatalf("%s order: %v", buyer.ID, err)
		}
		if _, _, err := invoiceFor(h, ctx, buyer.ID, po.ID); err != nil {
			t.Fatalf("%s invoice: %v", buyer.ID, err)
		}
	}
	rec, err := h.Apply(RemovePartner{ID: "TP3"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.RulesRemoved != 2 {
		t.Fatalf("removing TP3 removed %d rules, want its approval and review rules", rec.RulesRemoved)
	}
	if _, err := h.Snapshot().Model.Rules.Evaluate(InvoiceReviewRuleSet, "TP3", "SAP", &doc.Invoice{}); !errors.Is(err, rules.ErrNoRuleApplies) {
		t.Fatalf("TP3's review rule outlived it: %v", err)
	}
}

// TestRollbackRefusesToStrandPartner: a rules rollback to a version that
// has no rule for a partner added after it is refused, names the partner
// and changes nothing; the partner keeps being served.
func TestRollbackRefusesToStrandPartner(t *testing.T) {
	h := newFig14Hub(t)
	mustApply(t, h, ChangeThreshold{PartnerID: "TP1", Threshold: 70000}, AddPartner{Partner: Figure15Partner()})
	before := h.Snapshot()
	_, err := h.Apply(Rollback{Class: cfgstore.ClassRules, Name: ApprovalRuleSet, Version: 1})
	if err == nil || !strings.Contains(err.Error(), "TP3") {
		t.Fatalf("rollback stranding TP3: %v, want a refusal naming TP3", err)
	}
	if h.Snapshot() != before {
		t.Fatal("the refused rollback published a snapshot")
	}
	if v, _ := h.ConfigStore().Active(cfgstore.ClassRules, ApprovalRuleSet); v != 2 {
		t.Fatalf("rules active at v%d after the refused rollback, want v2", v)
	}
	if _, _, err := roundTrip(h, context.Background(), doc.NewGenerator(62).PO(tp3, seller)); err != nil {
		t.Fatalf("TP3 order after the refused rollback: %v", err)
	}
}

// TestApplyEmitsConfigEvents: each registered version is one swap event
// and each activation one activation event.
func TestApplyEmitsConfigEvents(t *testing.T) {
	h := newFig14Hub(t)
	before := h.Status().Config
	mustApply(t, h, typeVersion(t, BuildPrivateProcessWithAudit),
		Rollback{Class: cfgstore.ClassPrivateProcess, Name: PrivateProcessName, Version: 1})
	after := h.Status().Config
	if after.Swaps != before.Swaps+1 || after.Activations != before.Activations+1 || after.Epoch != h.Snapshot().Epoch() {
		t.Fatalf("config gauges %+v → %+v at epoch %d", before, after, h.Snapshot().Epoch())
	}
}
