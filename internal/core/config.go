package core

import (
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
// with a monotonically increasing config epoch. Hot-swaps (SwapBinding,
// SwapTransform, SwapRules) install a new version without draining: every
// exchange carries the config snapshot it admitted under and finishes on
// exactly those versions, while new admissions see the new epoch. Canary
// deployments (Hub.Canary) stage a candidate version, route a deterministic
// hash-based fraction of one partner's traffic to it, compare failure rates
// against the incumbent and promote or roll back automatically. Every
// change is journaled (see journal.go) so recovery restores the exact
// pre-crash config epoch.

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

// ConfigStore exposes the hub's versioned config store (epoch, histories,
// active versions).
func (h *Hub) ConfigStore() *cfgstore.Store { return h.cfg }

// RegisterHandler registers (or replaces) a workflow step handler on the
// hub's engine. Test batteries use it to inject deliberately failing
// handlers into canary candidate types.
func (h *Hub) RegisterHandler(name string, fn wf.Handler) {
	h.handlerReg.Register(name, fn)
}

// emitConfig publishes one config change on the event bus.
func (h *Hub) emitConfig(step, partner string, class cfgstore.Class, name string, version int, epoch int64) {
	h.bus.Emit(obs.Event{
		ExchangeID: fmt.Sprintf("%s:%s@%d", class, name, version),
		Partner:    partner,
		Kind:       obs.KindConfig,
		Stage:      obs.StageConfig,
		Step:       step,
		Epoch:      epoch,
	})
}

// registerArtifact records a new artifact version in the config store,
// journals the change and emits the swap event. It is idempotent per
// version: a version already registered (typically restored from the
// journal before a restart's seed deploys re-ran) is silently skipped, so
// replay plus re-deploy never double-bumps the epoch.
func (h *Hub) registerArtifact(class cfgstore.Class, name string, version int, note string, staged bool) (int64, error) {
	for _, v := range h.cfg.History(class, name) {
		if v.Version == version {
			return h.cfg.Epoch(), nil
		}
	}
	var (
		epoch  int64
		err    error
		action = cfgActionRegister
	)
	if staged {
		action = cfgActionStage
		epoch, err = h.cfg.Stage(class, name, version, note)
	} else {
		epoch, err = h.cfg.Register(class, name, version, note)
	}
	if err != nil {
		return 0, err
	}
	h.journalConfigChange(journalConfig{Epoch: epoch, Action: action, Class: string(class), Name: name, Version: version, Note: note})
	if !staged {
		h.emitConfig(obs.StepSwapped, "", class, name, version, epoch)
	}
	return epoch, nil
}

// activateArtifact moves the active pointer to an already-registered
// version (rollback or canary promotion), journals the change and emits the
// activation event.
func (h *Hub) activateArtifact(class cfgstore.Class, name string, version int, note, partner string) (int64, error) {
	epoch, err := h.cfg.Activate(class, name, version, note)
	if err != nil {
		return 0, err
	}
	h.journalConfigChange(journalConfig{Epoch: epoch, Action: cfgActionActivate, Class: string(class), Name: name, Version: version, Note: note})
	h.emitConfig(obs.StepActivated, partner, class, name, version, epoch)
	return epoch, nil
}

// nextVersion picks the next version number for an artifact: one past the
// highest registered version, floored by the caller's current definition.
func (h *Hub) nextVersion(class cfgstore.Class, name string, current int) int {
	base := current
	if hist := h.cfg.History(class, name); len(hist) > 0 {
		if last := hist[len(hist)-1].Version; last > base {
			base = last
		}
	}
	return base + 1
}

// pinnedVersion resolves the workflow type version an exchange must run a
// stage at: the version from its admission-time snapshot, overridden by the
// canary candidate when this exchange rides the canary arm for exactly this
// artifact. A pinned version whose type body did not survive a restart (the
// type store is in-memory; the journal only restores version numbers) falls
// back to the live latest.
func (h *Hub) pinnedVersion(ex *Exchange, typeName string) int {
	if ex == nil {
		return 0
	}
	v := ex.cfg.Version(classOf(typeName), typeName)
	if ex.canaryArm && ex.canary != nil && ex.canary.c.Name == typeName {
		v = ex.canary.c.Candidate
	}
	if v != 0 && !h.Engine.HasType(typeName, v) {
		return 0
	}
	return v
}

// exchangeOf resolves the exchange a workflow instance belongs to.
func (h *Hub) exchangeOf(in *wf.Instance) *Exchange {
	exID, _ := in.Data["exchange"].(string)
	if exID == "" {
		return nil
	}
	ex, _ := h.ExchangeByID(exID)
	return ex
}

// evalRules evaluates a rule set at the instance's exchange-pinned version:
// a frozen (hot-swapped-away) version if the pin points at one, the live
// registry otherwise.
func (h *Hub) evalRules(in *wf.Instance, set, source, target string, document any) (rules.Decision, error) {
	if ex := h.exchangeOf(in); ex != nil {
		if v := ex.cfg.Version(cfgstore.ClassRules, set); v > 0 {
			h.frozenMu.RLock()
			frozen := h.frozenRules[set][v]
			h.frozenMu.RUnlock()
			if frozen != nil {
				return frozen.Evaluate(source, target, document)
			}
		}
	}
	return h.Model.Rules.Evaluate(set, source, target, document)
}

// applyXform maps a native value between formats at the instance's
// exchange-pinned transform version: a frozen transformer if the pin points
// at one, the live registry (with its program cache) otherwise.
func (h *Hub) applyXform(in *wf.Instance, from, to formats.Format, dt doc.DocType, native any) (any, error) {
	name := xformKey(from, to, dt)
	if ex := h.exchangeOf(in); ex != nil {
		if v := ex.cfg.Version(cfgstore.ClassTransform, name); v > 0 {
			h.frozenMu.RLock()
			frozen := h.frozenXforms[name][v]
			h.frozenMu.RUnlock()
			if frozen != nil {
				return frozen.Apply(native)
			}
		}
	}
	return h.reg.Apply(from, to, dt, native)
}

// SwapBinding hot-swaps one protocol's binding process on the live hub
// without draining: the new version deploys, activates and becomes the
// model's definition; in-flight exchanges finish on the version they
// admitted under, new admissions see the new epoch. Passing a nil TypeDef
// swaps in a freshly generated binding (a pure re-version). The hub assigns
// the version number.
func (h *Hub) SwapBinding(p formats.Format, t *wf.TypeDef) (*wf.TypeDef, error) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	old, ok := h.Model.Bindings[p]
	if !ok {
		return nil, fmt.Errorf("core: no binding for protocol %s", p)
	}
	if t == nil {
		var err error
		if t, err = BuildBinding(p); err != nil {
			return nil, err
		}
	}
	if t.Name != old.Name {
		return nil, fmt.Errorf("core: binding swap for %s must keep the type name %q, got %q", p, old.Name, t.Name)
	}
	t.Version = h.nextVersion(classOf(t.Name), t.Name, old.Version)
	if err := h.deployTypeMode(t, false, "swap"); err != nil {
		return nil, err
	}
	h.Model.Bindings[p] = t
	return t, nil
}

// SwapTransform hot-swaps one transformation program. The displaced
// transformer is frozen under its version so exchanges pinned to it keep
// mapping documents exactly as they admitted.
func (h *Hub) SwapTransform(t transform.Transformer) (int, error) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	name := xformKey(t.From(), t.To(), t.DocType())
	old, ok := h.reg.Lookup(t.From(), t.To(), t.DocType())
	if !ok {
		return 0, fmt.Errorf("core: no transform registered for %s", name)
	}
	cur, _ := h.cfg.Active(cfgstore.ClassTransform, name)
	if cur == 0 {
		cur = 1
	}
	h.freezeXform(name, cur, old)
	next := h.nextVersion(cfgstore.ClassTransform, name, cur)
	h.reg.Register(t)
	if _, err := h.registerArtifact(cfgstore.ClassTransform, name, next, "swap", false); err != nil {
		return 0, err
	}
	return next, nil
}

// SwapRules hot-swaps a rule set: mutate is applied to a clone of the live
// set and the clone is installed atomically, so no exchange ever observes a
// half-applied rule change. The displaced set is frozen under its version
// for pinned evaluation.
func (h *Hub) SwapRules(set string, mutate func(*rules.Set) error) (int, error) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	live, ok := h.Model.Rules.Lookup(set)
	if !ok {
		return 0, fmt.Errorf("core: unknown rule set %q", set)
	}
	clone := live.Clone()
	if err := mutate(clone); err != nil {
		return 0, err
	}
	cur, _ := h.cfg.Active(cfgstore.ClassRules, set)
	if cur == 0 {
		cur = 1
	}
	h.freezeRules(set, cur, live)
	next := h.nextVersion(cfgstore.ClassRules, set, cur)
	h.Model.Rules.Replace(clone)
	if _, err := h.registerArtifact(cfgstore.ClassRules, set, next, "swap", false); err != nil {
		return 0, err
	}
	return next, nil
}

// ChangePartnerThreshold is the versioned runtime form of the model-level
// threshold change: the approval rule set is re-versioned through SwapRules
// (one artifact, zero process recompiles), so in-flight exchanges keep
// evaluating the threshold they admitted under. Unlike the model-level
// mutator, the partner record itself is never written — at runtime the rule
// set is the single source of truth for the threshold (the paper's point:
// thresholds live in rules, not in types), and concurrent admissions read
// the partner slice lock-free.
func (h *Hub) ChangePartnerThreshold(id string, threshold float64) (*ChangeRecord, error) {
	p, ok := h.Model.PartnerByID(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown partner %q", id)
	}
	ruleName := fmt.Sprintf("approval %s→%s", p.ID, p.Backend)
	removed := 0
	if _, err := h.SwapRules(ApprovalRuleSet, func(s *rules.Set) error {
		removed = s.Remove(ruleName)
		return s.Add(rules.Rule{
			Name:      ruleName,
			Source:    p.ID,
			Target:    p.Backend,
			Condition: approvalCondition(threshold),
		})
	}); err != nil {
		return nil, err
	}
	return &ChangeRecord{
		Description:  fmt.Sprintf("change %s approval threshold to %v", id, threshold),
		Local:        true,
		RulesAdded:   1,
		RulesRemoved: removed,
	}, nil
}

// Rollback moves an artifact's active pointer back to an earlier registered
// version — a pure StateStore change, never an un-deploy. Workflow versions
// remain startable in the engine; rules and transforms are re-installed
// from their frozen copies so new admissions evaluate the rolled-back
// version too.
func (h *Hub) Rollback(class cfgstore.Class, name string, version int) (int64, error) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	cur, ok := h.cfg.Active(class, name)
	if !ok {
		return 0, fmt.Errorf("core: unknown artifact %s:%s", class, name)
	}
	switch class {
	case cfgstore.ClassRules:
		if version != cur {
			h.frozenMu.RLock()
			target := h.frozenRules[name][version]
			h.frozenMu.RUnlock()
			if target == nil {
				return 0, fmt.Errorf("core: rule set %q has no frozen version %d to roll back to", name, version)
			}
			if live, ok := h.Model.Rules.Lookup(name); ok {
				h.freezeRules(name, cur, live)
			}
			h.Model.Rules.Replace(target.Clone())
		}
	case cfgstore.ClassTransform:
		if version != cur {
			h.frozenMu.RLock()
			target := h.frozenXforms[name][version]
			h.frozenMu.RUnlock()
			if target == nil {
				return 0, fmt.Errorf("core: transform %q has no frozen version %d to roll back to", name, version)
			}
			if live, ok := h.reg.Lookup(target.From(), target.To(), target.DocType()); ok {
				h.freezeXform(name, cur, live)
			}
			h.reg.Register(target)
		}
	}
	return h.activateArtifact(class, name, version, "rollback", "")
}

// freezeRules retains a displaced rule set under its version (idempotent:
// the first freeze of a version wins — it is the set that was live then).
func (h *Hub) freezeRules(set string, version int, s *rules.Set) {
	h.frozenMu.Lock()
	defer h.frozenMu.Unlock()
	if h.frozenRules[set] == nil {
		h.frozenRules[set] = map[int]*rules.Set{}
	}
	if _, done := h.frozenRules[set][version]; !done {
		h.frozenRules[set][version] = s
	}
}

// freezeXform retains a displaced transformer under its version.
func (h *Hub) freezeXform(name string, version int, t transform.Transformer) {
	h.frozenMu.Lock()
	defer h.frozenMu.Unlock()
	if h.frozenXforms[name] == nil {
		h.frozenXforms[name] = map[int]transform.Transformer{}
	}
	if _, done := h.frozenXforms[name][version]; !done {
		h.frozenXforms[name][version] = t
	}
}

// canaryRun is one live canary deployment: the comparison state plus the
// candidate type, installed into the model on promotion.
type canaryRun struct {
	c   *cfgstore.Canary
	def *wf.TypeDef
}

// Canary stage-deploys a candidate version of one of the partner's workflow
// artifacts and routes a deterministic hash-based fraction of the partner's
// traffic to it. The candidate's failure rate is compared against the
// incumbent's (relative comparison: a fault hitting both arms does not
// blame the candidate); once enough candidate samples accumulate the canary
// settles — promotion activates the candidate for all traffic, a regression
// rolls the partner back to the incumbent automatically. One canary per
// partner at a time. The hub assigns the candidate's version number.
func (h *Hub) Canary(partnerID string, candidate *wf.TypeDef, fraction float64) (*cfgstore.Canary, error) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	if candidate == nil {
		return nil, fmt.Errorf("core: canary requires a candidate type")
	}
	route, ok := h.resolveRoute(partnerID)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPartner, partnerID)
	}
	class := classOf(candidate.Name)
	switch class {
	case cfgstore.ClassPublicProcess, cfgstore.ClassBinding, cfgstore.ClassPrivateProcess, cfgstore.ClassAppBinding:
	default:
		return nil, fmt.Errorf("core: canary deploys workflow artifacts, not %s", class)
	}
	if !routeUses(route, candidate.Name) {
		return nil, fmt.Errorf("core: %s is not on partner %s's route", candidate.Name, partnerID)
	}
	incumbent, ok := h.cfg.Active(class, candidate.Name)
	if !ok || incumbent == 0 {
		return nil, fmt.Errorf("core: %s:%s has no active incumbent version", class, candidate.Name)
	}
	candidate.Version = h.nextVersion(class, candidate.Name, incumbent)
	c, err := cfgstore.NewCanary(partnerID, class, candidate.Name, incumbent, candidate.Version, fraction, h.canaryPolicy)
	if err != nil {
		return nil, err
	}
	run := &canaryRun{c: c, def: candidate}
	h.canaryMu.Lock()
	if _, exists := h.canaries[partnerID]; exists {
		h.canaryMu.Unlock()
		return nil, fmt.Errorf("core: partner %s already has a canary running", partnerID)
	}
	h.canaries[partnerID] = run
	h.canaryMu.Unlock()
	if err := h.deployTypeMode(candidate, true, "canary"); err != nil {
		h.canaryMu.Lock()
		delete(h.canaries, partnerID)
		h.canaryMu.Unlock()
		return nil, err
	}
	h.emitConfig(obs.StepCanaryStarted, partnerID, class, candidate.Name, candidate.Version, h.cfg.Epoch())
	return c, nil
}

// routeUses reports whether the named workflow type serves the route.
func routeUses(r resolvedRoute, name string) bool {
	switch name {
	case r.publicName, r.bindingName, r.appBinding,
		r.invPublicName, r.invBindingName, r.invAppBinding,
		PrivateProcessName, InvoicePrivateProcessName:
		return true
	}
	return false
}

// ActiveCanary returns the partner's running canary, if any.
func (h *Hub) ActiveCanary(partnerID string) (*cfgstore.Canary, bool) {
	h.canaryMu.Lock()
	defer h.canaryMu.Unlock()
	run, ok := h.canaries[partnerID]
	if !ok {
		return nil, false
	}
	return run.c, true
}

// armCanary attaches the partner's running canary (if any) to a freshly
// admitted exchange and routes the exchange deterministically by its
// business document ID, so a resubmit lands on the same arm as the original
// run. Called under h.mu from newExchange.
func (h *Hub) armCanary(ex *Exchange, key string) {
	h.canaryMu.Lock()
	run := h.canaries[ex.Partner.ID]
	h.canaryMu.Unlock()
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
// failure-rate comparison and settles the canary when the verdict lands.
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
	verdict, decided := ex.canary.c.Record(ex.canaryArm, failed)
	if decided {
		h.settleCanary(ex.canary, verdict)
	}
}

// settleCanary applies a decided canary verdict exactly once: promotion
// activates the candidate version and installs its type as the model's
// definition; rollback re-activates the incumbent. Either way the canary
// stops routing traffic immediately.
func (h *Hub) settleCanary(run *canaryRun, verdict cfgstore.CanaryVerdict) {
	c := run.c
	h.canaryMu.Lock()
	if h.canaries[c.Partner] != run {
		h.canaryMu.Unlock()
		return
	}
	delete(h.canaries, c.Partner)
	h.canaryMu.Unlock()
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	switch verdict {
	case cfgstore.CanaryPromote:
		if _, err := h.activateArtifact(c.Class, c.Name, c.Candidate, "canary-promote", c.Partner); err == nil {
			h.installTypeDef(run.def)
		}
		h.emitConfig(obs.StepCanaryPromoted, c.Partner, c.Class, c.Name, c.Candidate, h.cfg.Epoch())
	case cfgstore.CanaryRollback:
		h.activateArtifact(c.Class, c.Name, c.Incumbent, "canary-rollback", c.Partner)
		h.emitConfig(obs.StepCanaryRolledBack, c.Partner, c.Class, c.Name, c.Candidate, h.cfg.Epoch())
	}
}

// installTypeDef makes a promoted candidate the model's definition of its
// artifact, so later model-level changes version from it.
func (h *Hub) installTypeDef(t *wf.TypeDef) {
	i := strings.Index(t.Name, ":")
	if i < 0 {
		return
	}
	prefix, rest := t.Name[:i], t.Name[i+1:]
	switch prefix {
	case "public":
		h.Model.PublicProcesses[formats.Format(rest)] = t
	case "binding":
		h.Model.Bindings[formats.Format(rest)] = t
	case "appbinding":
		h.Model.AppBindings[rest] = t
	case "public-inv":
		h.Model.InvoicePublic[formats.Format(rest)] = t
	case "binding-inv":
		h.Model.InvoiceBindings[formats.Format(rest)] = t
	case "appbinding-inv":
		h.Model.InvoiceAppBindings[rest] = t
	case "private":
		if t.Name == PrivateProcessName {
			h.Model.Private = t
		} else {
			h.Model.InvoicePrivate = t
		}
	}
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
