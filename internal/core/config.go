package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cfgstore"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/transform"
	"repro/internal/wf"
)

// Runtime change management (paper Section 4.5/4.6 applied to a live hub):
// every integration artifact — process types, transform programs, rule sets
// — is an immutable versioned record in the config store (internal/cfgstore)
// with a monotonically increasing config epoch. The hub holds one immutable
// Snapshot of its model and config behind an atomic pointer; Hub.Apply
// (change.go) publishes the next one without draining. An exchange loads
// the snapshot once at admission and runs every stage on it, so it finishes
// on exactly the versions it admitted under while new admissions see the
// new snapshot. Canary deployments stage a candidate version, route a
// deterministic hash-based fraction of one partner's traffic to it, compare
// failure rates against the incumbent and promote or roll back
// automatically. Every change is journaled with its artifact (journal.go),
// so a restarted hub replays it.

// Snapshot is one published state of a live hub: the model and the config
// (epoch and active artifact versions) every exchange admitted under it
// runs on. Hub.Apply builds the next snapshot on a copy and publishes it
// whole; nothing in a published snapshot is written again.
type Snapshot struct {
	// Model is the model of this state; read it, never write it.
	Model *Model

	store *cfgstore.Store
	cfg   cfgstore.Snapshot
	// xforms holds the transform programs that differ from the hub's
	// built-in registry, by key.
	xforms map[string]transform.Transformer
	// canaries holds the running canary of each canaried partner.
	canaries map[string]*canaryRun
}

// Epoch returns the config epoch of the snapshot.
func (s *Snapshot) Epoch() int64 { return s.cfg.Epoch }

// Snapshot returns the hub's current model snapshot.
func (h *Hub) Snapshot() *Snapshot { return h.snap.Load() }

// classOf maps a workflow type name ("binding:EDI", "appbinding-inv:SAP")
// to its artifact class in the config store.
func classOf(typeName string) cfgstore.Class {
	prefix := typeName
	if i := strings.Index(typeName, ":"); i >= 0 {
		prefix = typeName[:i]
	}
	switch prefix {
	case "public", "public-inv":
		return cfgstore.ClassPublicProcess
	case "binding", "binding-inv":
		return cfgstore.ClassBinding
	case "private":
		return cfgstore.ClassPrivateProcess
	case "appbinding", "appbinding-inv":
		return cfgstore.ClassAppBinding
	}
	return cfgstore.Class(prefix)
}

// xformKey names a transform artifact exactly as transform.Registry.Keys
// renders its triples.
func xformKey(from, to formats.Format, dt doc.DocType) string {
	return string(from) + "→" + string(to) + ":" + string(dt)
}

// ConfigStore exposes the config store of the hub's current snapshot
// (epoch, histories, active versions). The store is never written after
// publication: read it again after a change.
func (h *Hub) ConfigStore() *cfgstore.Store { return h.snap.Load().store }

// RegisterHandler registers (or replaces) a workflow step handler on the
// hub's engine. Test batteries use it to inject deliberately failing
// handlers into canary candidate types.
func (h *Hub) RegisterHandler(name string, fn wf.Handler) {
	h.handlerReg.Register(name, fn)
}

// configEvent is one config change on the event bus.
func configEvent(step, partner string, class cfgstore.Class, name string, version int, epoch int64) obs.Event {
	return obs.Event{
		ExchangeID: fmt.Sprintf("%s:%s@%d", class, name, version),
		Partner:    partner,
		Kind:       obs.KindConfig,
		Stage:      obs.StageConfig,
		Step:       step,
		Epoch:      epoch,
	}
}

// pinnedVersion resolves the workflow type version an exchange runs a stage
// at: the active version of its admission snapshot, overridden by the
// canary candidate when this exchange rides the canary arm for exactly this
// artifact.
func (h *Hub) pinnedVersion(ex *Exchange, typeName string) int {
	if ex == nil {
		return 0
	}
	if ex.canaryArm && ex.canary.c.Name == typeName {
		return ex.canary.c.Candidate
	}
	return ex.snap.cfg.Version(classOf(typeName), typeName)
}

// snapshotOf is the snapshot a step runs on: the admission snapshot of the
// exchange its context carries, or the current one outside any exchange.
func (h *Hub) snapshotOf(ctx context.Context) *Snapshot {
	if ex := exchangeFrom(ctx); ex != nil {
		return ex.snap
	}
	return h.snap.Load()
}

// evalRules evaluates a rule set of the step's snapshot.
func (h *Hub) evalRules(ctx context.Context, set, source, target string, document any) (rules.Decision, error) {
	return h.snapshotOf(ctx).Model.Rules.Evaluate(set, source, target, document)
}

// applyXform maps a native value between formats with the program of the
// step's snapshot: a swapped-in transformer, or the built-in registry (with
// its program cache).
func (h *Hub) applyXform(ctx context.Context, from, to formats.Format, dt doc.DocType, native any) (any, error) {
	if s := h.snapshotOf(ctx); len(s.xforms) > 0 {
		if t, ok := s.xforms[xformKey(from, to, dt)]; ok {
			return t.Apply(native)
		}
	}
	return h.reg.Apply(from, to, dt, native)
}

// canaryRun is one live canary deployment: the comparison state plus the
// candidate type, installed into the model on promotion.
type canaryRun struct {
	c   *cfgstore.Canary
	def *wf.TypeDef
}

// ActiveCanary returns the partner's running canary, if any.
func (h *Hub) ActiveCanary(partnerID string) (*cfgstore.Canary, bool) {
	run, ok := h.snap.Load().canaries[partnerID]
	if !ok {
		return nil, false
	}
	return run.c, true
}

// armCanary attaches the partner's running canary in the exchange's
// snapshot (if any) and routes the exchange deterministically by its
// business document ID, so a resubmit lands on the same arm as the original
// run. The ledger calls it when the exchange starts, before the record is
// visible.
func (ex *Exchange) armCanary(key string) {
	run := ex.snap.canaries[ex.Partner.ID]
	if run == nil {
		return
	}
	if key == "" {
		key = ex.ID
	}
	ex.canary = run
	ex.canaryArm = run.c.RouteCandidate(key)
}

// recordCanaryOutcome feeds one finished exchange into its canary's
// failure-rate comparison and settles the canary once it has a verdict.
// Only endpoint-attributable failures count as samples: infrastructure
// refusals (an open breaker, a cancelled context) say nothing about the
// candidate configuration.
func (h *Hub) recordCanaryOutcome(ex *Exchange, err error) {
	if ex == nil || ex.canary == nil {
		return
	}
	failed := err != nil
	if failed && !endpointFailure(err) {
		return
	}
	run := ex.canary
	verdict, _ := run.c.Record(ex.canaryArm, failed)
	if verdict != cfgstore.CanaryRunning && h.snap.Load().canaries[run.c.Partner] == run {
		h.settleCanary(run, verdict)
	}
}

// settleCanary applies a decided verdict as a SettleCanary change, once:
// a later outcome finds the canary gone from the snapshot. A settle the
// journal refuses leaves the canary running, and the next outcome retries.
func (h *Hub) settleCanary(run *canaryRun, verdict cfgstore.CanaryVerdict) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	if h.snap.Load().canaries[run.c.Partner] != run {
		return
	}
	_, _ = h.apply(SettleCanary{Partner: run.c.Partner, Verdict: verdict}, true)
}

// StageVersions reports the workflow type versions the exchange's stage
// instances actually ran at, keyed by pipeline stage. The change-management
// test battery uses it to prove no exchange ever mixes config versions.
func (h *Hub) StageVersions(ex *Exchange) map[obs.Stage]int {
	out := map[obs.Stage]int{}
	for _, id := range []string{ex.PublicID, ex.BindingID, ex.PrivateID, ex.AppID} {
		if id == "" {
			continue
		}
		in, err := h.Engine.Instance(id)
		if err != nil {
			continue
		}
		out[stageOf(in.Type)] = in.Version
	}
	return out
}
