package core

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/backend"
	"repro/internal/cfgstore"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/transform"
	"repro/internal/wf"
)

// Every change to a model takes one path (paper Sections 4.5 and 4.6: a
// change is local to one artifact). A Change is a value of one of the
// kinds below; Model.Apply makes it on a startup model in place, and
// Hub.Apply makes it on a live hub: it copies the hub's current model
// snapshot, makes the change on the copy, deploys the type versions it
// adds, journals the change with its artifact and only then publishes the
// copy. Admissions load the published snapshot once, so an exchange sees
// all of a change or none of it, and a restarted hub replays the journaled
// changes onto its startup model.

// Change is one change to a model. The set of kinds is closed: AddPartner,
// RemovePartner, AddBackend, ChangeThreshold, NewTypeVersion,
// SwapTransform, EnableInvoicing, Rollback, Canary and SettleCanary.
type Change interface {
	// kind names the change in the journal.
	kind() string
	// apply makes the change on the edit's model.
	apply(e *edit) error
}

// ChangeRecord accounts for exactly which artifacts a change touched — the
// Section 4.5/4.6 evidence. In the advanced architecture every routine
// population change is local: the private process is never touched by
// adding partners, protocols or back ends.
type ChangeRecord struct {
	// Description names the change.
	Description string
	// Local reports whether the change stayed within one artifact class
	// (Section 4.5's classification).
	Local bool
	// TypesAdded and TypesModified list affected workflow types.
	TypesAdded    []string
	TypesModified []string
	// RulesAdded and RulesRemoved count business-rule changes.
	RulesAdded   int
	RulesRemoved int
	// PrivateTouched reports whether the private process changed.
	PrivateTouched bool

	// Epoch is the hub's config epoch after the change (0 on a startup
	// model).
	Epoch int64
	// Versions lists, in order, each artifact version the change
	// registered, staged or activated on the hub.
	Versions []VersionRef
	// Canary is the deployment a Canary change started.
	Canary *cfgstore.Canary
}

// VersionRef names one version of one artifact.
type VersionRef struct {
	Class   cfgstore.Class
	Name    string
	Version int
}

// AddPartner adds a trading partner with everything it brings (Section
// 4.6: "adding a new trading partner only requires to add business rules
// … If the new trading partner complies to an already implemented B2B
// protocol" nothing else changes; otherwise the protocol's processes are
// added). Its rules ride with the partner record: no rule-set version is
// registered.
type AddPartner struct {
	Partner TradingPartner `json:"partner"`
}

// RemovePartner removes a partner and its business rules. The protocol's
// processes remain (other partners may use them); the private process is
// untouched.
type RemovePartner struct {
	ID string `json:"id"`
}

// AddBackend adds a back-end application: its application binding, its
// invoice application binding while invoicing is on, and its system. The
// private process and every public process are untouched (Section 4.6:
// "adding new back end application system is analogous to adding a new
// B2B protocol standard").
type AddBackend struct {
	Backend Backend `json:"backend"`
}

// ChangeThreshold changes one partner's approval threshold: a rules-only
// change, invisible to every process type. The partner record carries the
// new threshold and the approval rule set gets one new version.
type ChangeThreshold struct {
	PartnerID string  `json:"partner"`
	Threshold float64 `json:"threshold"`
}

// NewTypeVersion installs a new version of one of the model's workflow
// artifacts and makes it active: a binding swap, or a Section 4.5 local
// change such as the private process's audit step or a public process's
// transport or functional acknowledgments. The version number is assigned
// by the change path, not taken from Type.
type NewTypeVersion struct {
	Type *wf.TypeDef `json:"type"`
}

// SwapTransform replaces one transformation program on a live hub. A
// transform is Go code, so the journal keeps only its key and version: a
// restarted hub reports the record and keeps the version it can rebuild.
type SwapTransform struct {
	Transformer transform.Transformer `json:"-"`

	// ref is what a journaled record names.
	ref transformRef
}

// transformRef is the journaled artifact of a SwapTransform.
type transformRef struct {
	Key     string `json:"key"`
	Version int    `json:"version"`
}

// EnableInvoicing adds the invoice flow: the Section 4.6 "adding a new
// private process" change. Existing artifacts are untouched.
type EnableInvoicing struct{}

// Rollback moves an artifact's active pointer back to an earlier
// registered version — a config change, never an un-deploy. The model
// takes that version's body again: a rule set's or transform's as
// registered, a workflow type's as deployed.
type Rollback struct {
	Class   cfgstore.Class `json:"class"`
	Name    string         `json:"name"`
	Version int            `json:"version"`
}

// Canary stages a candidate version of one of the partner's workflow
// artifacts and routes a deterministic hash-based fraction of the
// partner's traffic to it. The candidate's failure rate is compared
// against the incumbent's (a fault hitting both arms does not blame the
// candidate); once enough candidate samples accumulate the hub applies the
// verdict as a SettleCanary. One canary per partner at a time.
type Canary struct {
	Partner   string      `json:"partner"`
	Candidate *wf.TypeDef `json:"candidate"`
	Fraction  float64     `json:"fraction"`
}

// SettleCanary ends the partner's canary: promotion activates the
// candidate and makes it the model's definition, rollback re-activates the
// incumbent. Either way the canary stops routing traffic.
type SettleCanary struct {
	Partner string                 `json:"partner"`
	Verdict cfgstore.CanaryVerdict `json:"verdict"`
}

func (AddPartner) kind() string      { return "add-partner" }
func (RemovePartner) kind() string   { return "remove-partner" }
func (AddBackend) kind() string      { return "add-backend" }
func (ChangeThreshold) kind() string { return "change-threshold" }
func (NewTypeVersion) kind() string  { return "new-type-version" }
func (SwapTransform) kind() string   { return "swap-transform" }
func (EnableInvoicing) kind() string { return "enable-invoicing" }
func (Rollback) kind() string        { return "rollback" }
func (Canary) kind() string          { return "canary" }
func (SettleCanary) kind() string    { return "settle-canary" }

// errNeedsHub refuses a change a startup model cannot take.
var errNeedsHub = errors.New("core: the change needs a live hub")

func (c AddPartner) apply(e *edit) error {
	p := c.Partner
	e.rec.Description = fmt.Sprintf("add trading partner %s (%s → %s)", p.ID, p.Protocol, p.Backend)
	return e.addPartner(p)
}

func (c RemovePartner) apply(e *edit) error {
	i := slices.IndexFunc(e.m.Partners, func(p TradingPartner) bool { return p.ID == c.ID })
	if i < 0 {
		return fmt.Errorf("core: unknown partner %q", c.ID)
	}
	p := e.m.Partners[i]
	e.rec.Description = "remove trading partner " + c.ID
	e.m.Partners = append(slices.Clip(e.m.Partners[:i]), e.m.Partners[i+1:]...)
	delete(e.m.routes, c.ID)
	e.rec.RulesRemoved += e.removeRule(ApprovalRuleSet, approvalRule(p).Name)
	e.rec.RulesRemoved += e.removeRule(InvoiceReviewRuleSet, reviewRule(p).Name)
	if _, ok := e.canaries[c.ID]; ok {
		e.canaries = maps.Clone(e.canaries)
		delete(e.canaries, c.ID)
	}
	return nil
}

func (c AddBackend) apply(e *edit) error {
	e.rec.Description = "add backend " + c.Backend.Name
	return e.addBackend(c.Backend)
}

func (c ChangeThreshold) apply(e *edit) error {
	if err := checkThreshold(c.Threshold); err != nil {
		return err
	}
	i := slices.IndexFunc(e.m.Partners, func(p TradingPartner) bool { return p.ID == c.PartnerID })
	if i < 0 {
		return fmt.Errorf("core: unknown partner %q", c.PartnerID)
	}
	e.rec.Description = fmt.Sprintf("change %s approval threshold to %v", c.PartnerID, c.Threshold)
	e.m.Partners = slices.Clone(e.m.Partners)
	p := &e.m.Partners[i]
	p.ApprovalThreshold = c.Threshold
	e.m.routes[p.ID] = e.m.newRoute(*p)
	rule := approvalRule(*p)
	set := e.ruleSet(ApprovalRuleSet)
	e.rec.RulesRemoved = set.Remove(rule.Name)
	if err := set.Add(rule); err != nil {
		return err
	}
	e.rec.RulesAdded = 1
	return e.newRulesVersion(ApprovalRuleSet, "threshold")
}

func (c NewTypeVersion) apply(e *edit) error {
	if c.Type == nil {
		return errors.New("core: a new type version needs a type")
	}
	t := c.Type.Clone()
	if err := t.Validate(); err != nil {
		return err
	}
	e.rec.Description = "new version of " + t.Name
	e.rec.TypesModified = append(e.rec.TypesModified, t.Name)
	e.rec.PrivateTouched = t.Name == PrivateProcessName
	return e.addType(t, false)
}

func (c SwapTransform) apply(e *edit) error {
	if e.h == nil {
		return errNeedsHub
	}
	t := c.Transformer
	if t == nil {
		return fmt.Errorf("core: transform %s v%d is Go code the journal does not hold", c.ref.Key, c.ref.Version)
	}
	key := xformKey(t.From(), t.To(), t.DocType())
	if _, ok := e.h.reg.Lookup(t.From(), t.To(), t.DocType()); !ok {
		return fmt.Errorf("core: no transform registered for %s", key)
	}
	e.rec.Description = "swap transform " + key
	e.xforms = maps.Clone(e.xforms)
	if e.xforms == nil {
		e.xforms = map[string]transform.Transformer{}
	}
	e.xforms[key] = t
	return e.register(cfgstore.ClassTransform, key, e.nextVersion(cfgstore.ClassTransform, key, 1), "swap", false)
}

func (EnableInvoicing) apply(e *edit) error {
	m := e.m
	if m.InvoicePrivate != nil {
		return fmt.Errorf("core: invoicing already enabled")
	}
	e.rec.Description = "enable invoice dispatch (new private process)"
	priv, err := BuildInvoicePrivateProcess()
	if err != nil {
		return err
	}
	m.InvoicePublic = map[formats.Format]*wf.TypeDef{}
	m.InvoiceBindings = map[formats.Format]*wf.TypeDef{}
	m.InvoiceAppBindings = map[string]*wf.TypeDef{}
	if err := e.addType(priv, true); err != nil {
		return err
	}
	for _, p := range m.Protocols() {
		if err := e.addTypes(protocolTypes(p, true)); err != nil {
			return err
		}
	}
	for _, b := range m.Backends {
		if err := e.addTypes(backendTypes(b, true)); err != nil {
			return err
		}
	}
	// The new private process brings its business rules: one review rule
	// per partner, whose route gains the invoice names.
	for _, p := range m.Partners {
		if err := e.addRule(InvoiceReviewRuleSet, reviewRule(p)); err != nil {
			return err
		}
		m.routes[p.ID] = m.newRoute(p)
	}
	return nil
}

func (c Rollback) apply(e *edit) error {
	if e.h == nil {
		return errNeedsHub
	}
	if _, ok := e.store.Active(c.Class, c.Name); !ok {
		return fmt.Errorf("core: unknown artifact %s:%s", c.Class, c.Name)
	}
	e.rec.Description = fmt.Sprintf("roll %s:%s back to v%d", c.Class, c.Name, c.Version)
	switch c.Class {
	case cfgstore.ClassRules:
		body, _ := e.h.bodies[VersionRef(c)].(*rules.Set)
		if body == nil {
			return fmt.Errorf("core: rule set %q has no version %d to roll back to", c.Name, c.Version)
		}
		e.m.Rules.Replace(body)
		delete(e.ownSets, c.Name)
	case cfgstore.ClassTransform:
		e.xforms = maps.Clone(e.xforms)
		if c.Version == 1 {
			// Version 1 is the hub's built-in program.
			delete(e.xforms, c.Name)
			break
		}
		body, _ := e.h.bodies[VersionRef(c)].(transform.Transformer)
		if body == nil {
			return fmt.Errorf("core: transform %q has no version %d to roll back to", c.Name, c.Version)
		}
		e.xforms[c.Name] = body
	default:
		t, err := e.h.Engine.Store().GetType(c.Name, c.Version)
		if err != nil {
			return fmt.Errorf("core: %s:%s has no version %d to roll back to: %w", c.Class, c.Name, c.Version, err)
		}
		if err := e.m.setTypeDef(t, false); err != nil {
			return err
		}
	}
	return e.activate(c.Class, c.Name, c.Version, "")
}

func (c Canary) apply(e *edit) error {
	if e.h == nil {
		return errNeedsHub
	}
	if c.Candidate == nil {
		return fmt.Errorf("core: canary requires a candidate type")
	}
	r, ok := e.m.routes[c.Partner]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPartner, c.Partner)
	}
	name := c.Candidate.Name
	class := classOf(name)
	switch class {
	case cfgstore.ClassPublicProcess, cfgstore.ClassBinding, cfgstore.ClassPrivateProcess, cfgstore.ClassAppBinding:
	default:
		return fmt.Errorf("core: canary deploys workflow artifacts, not %s", class)
	}
	if !r.uses(name) {
		return fmt.Errorf("core: %s is not on partner %s's route", name, c.Partner)
	}
	incumbent, ok := e.store.Active(class, name)
	if !ok || incumbent == 0 {
		return fmt.Errorf("core: %s:%s has no active incumbent version", class, name)
	}
	if _, running := e.canaries[c.Partner]; running {
		return fmt.Errorf("core: partner %s already has a canary running", c.Partner)
	}
	cand := c.Candidate.Clone()
	cand.Version = e.nextVersion(class, name, incumbent)
	cc, err := cfgstore.NewCanary(c.Partner, class, name, incumbent, cand.Version, c.Fraction, e.h.canaryPolicy)
	if err != nil {
		return err
	}
	e.rec.Description = fmt.Sprintf("canary %s v%d for %s", name, cand.Version, c.Partner)
	if err := e.register(class, name, cand.Version, "canary", true); err != nil {
		return err
	}
	e.deploy = append(e.deploy, cand)
	e.canaries = maps.Clone(e.canaries)
	if e.canaries == nil {
		e.canaries = map[string]*canaryRun{}
	}
	e.canaries[c.Partner] = &canaryRun{c: cc, def: cand}
	e.rec.Canary = cc
	e.event(obs.StepCanaryStarted, c.Partner, class, name, cand.Version)
	return nil
}

func (c SettleCanary) apply(e *edit) error {
	run := e.canaries[c.Partner]
	if run == nil {
		return fmt.Errorf("core: partner %s has no canary running", c.Partner)
	}
	cc := run.c
	e.rec.Description = fmt.Sprintf("settle canary %s v%d for %s: %s", cc.Name, cc.Candidate, c.Partner, c.Verdict)
	switch c.Verdict {
	case cfgstore.CanaryPromote:
		if err := e.activate(cc.Class, cc.Name, cc.Candidate, c.Partner); err != nil {
			return err
		}
		if err := e.m.setTypeDef(run.def, false); err != nil {
			return err
		}
		e.event(obs.StepCanaryPromoted, c.Partner, cc.Class, cc.Name, cc.Candidate)
	case cfgstore.CanaryRollback:
		if err := e.activate(cc.Class, cc.Name, cc.Incumbent, c.Partner); err != nil {
			return err
		}
		e.event(obs.StepCanaryRolledBack, c.Partner, cc.Class, cc.Name, cc.Candidate)
	default:
		return fmt.Errorf("core: canary verdict %q settles nothing", c.Verdict)
	}
	e.canaries = maps.Clone(e.canaries)
	delete(e.canaries, c.Partner)
	return nil
}

// edit is one change under way: the model it writes (a startup model in
// place, or on a live hub a copy of the published one) and, on a hub, a
// copy of the config store it registers versions in, the type versions to
// deploy and the config events to emit once the change is published.
type edit struct {
	m   *Model
	rec *ChangeRecord

	// h is nil on a startup model.
	h        *Hub
	store    *cfgstore.Store
	xforms   map[string]transform.Transformer // copied on write
	canaries map[string]*canaryRun            // copied on write
	deploy   []*wf.TypeDef
	systems  map[string]backend.System
	// cow marks an edit of a model others may hold (a hub's or a caller's):
	// rule sets are copied before they are written, and ownSets names the
	// sets already copied.
	cow     bool
	ownSets map[string]bool
	events  []obs.Event
}

// checkThreshold refuses a threshold no approval rule can hold.
func checkThreshold(th float64) error {
	if math.IsNaN(th) || math.IsInf(th, 0) {
		return fmt.Errorf("core: approval threshold %v is not a finite amount", th)
	}
	return nil
}

// addPartner adds a partner with everything it brings: the processes of a
// protocol the model does not serve yet, its approval rule, and its
// invoice review rule while invoicing is on.
func (e *edit) addPartner(p TradingPartner) error {
	m := e.m
	if p.ID == "" || p.Protocol == "" {
		return fmt.Errorf("core: partner %+v incomplete", p)
	}
	if _, dup := m.routes[p.ID]; dup {
		return fmt.Errorf("core: duplicate partner %q", p.ID)
	}
	if _, ok := m.backends[p.Backend]; !ok {
		return fmt.Errorf("core: partner %q references unknown backend %q", p.ID, p.Backend)
	}
	if err := checkThreshold(p.ApprovalThreshold); err != nil {
		return fmt.Errorf("core: partner %q: %w", p.ID, err)
	}
	if _, ok := m.PublicProcesses[p.Protocol]; !ok {
		if err := e.addTypes(protocolTypes(p.Protocol, false)); err != nil {
			return err
		}
		if m.InvoicePrivate != nil {
			if err := e.addTypes(protocolTypes(p.Protocol, true)); err != nil {
				return err
			}
		}
	}
	m.Partners = append(m.Partners, p)
	m.routes[p.ID] = m.newRoute(p)
	if err := e.addRule(ApprovalRuleSet, approvalRule(p)); err != nil {
		return err
	}
	if m.InvoicePrivate != nil {
		return e.addRule(InvoiceReviewRuleSet, reviewRule(p))
	}
	return nil
}

// addBackend adds a back end with everything it brings: its application
// binding, its invoice application binding while invoicing is on, and on a
// hub its system.
func (e *edit) addBackend(b Backend) error {
	m := e.m
	if b.Name == "" || b.Format == "" {
		return fmt.Errorf("core: backend %+v incomplete", b)
	}
	if _, dup := m.backends[b.Name]; dup {
		return fmt.Errorf("core: duplicate backend %q", b.Name)
	}
	if e.h != nil {
		sys, err := newSystem(b)
		if err != nil {
			return err
		}
		if e.systems == nil {
			e.systems = map[string]backend.System{}
		}
		e.systems[b.Name] = sys
		e.h.appHandlersFor(b)
	}
	m.Backends = append(m.Backends, b)
	m.backends[b.Name] = b
	if err := e.addTypes(backendTypes(b, false)); err != nil {
		return err
	}
	if m.InvoicePrivate != nil {
		return e.addTypes(backendTypes(b, true))
	}
	return nil
}

// protocolTypes builds the processes a B2B protocol brings: its public
// process and binding, or with invoice set those of the invoice flow.
func protocolTypes(p formats.Format, invoice bool) ([]*wf.TypeDef, error) {
	pub, bind := BuildPublicProcess, BuildBinding
	if invoice {
		pub, bind = BuildInvoicePublicProcess, BuildInvoiceBinding
	}
	pt, err := pub(p)
	if err != nil {
		return nil, err
	}
	bt, err := bind(p)
	if err != nil {
		return nil, err
	}
	return []*wf.TypeDef{pt, bt}, nil
}

// backendTypes builds the application binding a back end brings, or with
// invoice set its invoice application binding.
func backendTypes(b Backend, invoice bool) ([]*wf.TypeDef, error) {
	build := BuildAppBinding
	if invoice {
		build = BuildInvoiceAppBinding
	}
	t, err := build(b)
	if err != nil {
		return nil, err
	}
	return []*wf.TypeDef{t}, nil
}

// addTypes adds each of types as a new artifact.
func (e *edit) addTypes(types []*wf.TypeDef, err error) error {
	if err != nil {
		return err
	}
	for _, t := range types {
		if err := e.addType(t, true); err != nil {
			return err
		}
	}
	return nil
}

// addType makes t the model's definition of its artifact — a new artifact
// when added is set, else a new version of the current definition — and
// on a hub registers and deploys it.
func (e *edit) addType(t *wf.TypeDef, added bool) error {
	if !added {
		cur := e.m.typeDef(t.Name)
		if cur == nil {
			return fmt.Errorf("core: %s is not an artifact of the model", t.Name)
		}
		t.Version = cur.Version + 1
	}
	if err := e.m.setTypeDef(t, added); err != nil {
		return err
	}
	if added {
		e.rec.TypesAdded = append(e.rec.TypesAdded, t.Name)
	}
	if e.h == nil {
		return nil
	}
	class := classOf(t.Name)
	t.Version = e.nextVersion(class, t.Name, t.Version-1)
	note := "swap"
	if added {
		note = "deploy"
	}
	if err := e.register(class, t.Name, t.Version, note, false); err != nil {
		return err
	}
	e.deploy = append(e.deploy, t)
	return nil
}

// nextVersion picks the next version number for an artifact: one past the
// highest registered version, floored by current.
func (e *edit) nextVersion(class cfgstore.Class, name string, current int) int {
	if hist := e.store.History(class, name); len(hist) > 0 {
		current = max(current, hist[len(hist)-1].Version)
	}
	return current + 1
}

// register records a new version in the edit's store copy and the change
// record; a staged version (a canary candidate) does not become active.
func (e *edit) register(class cfgstore.Class, name string, version int, note string, staged bool) error {
	add := e.store.Register
	if staged {
		add = e.store.Stage
	}
	if _, err := add(class, name, version, note); err != nil {
		return err
	}
	e.rec.Versions = append(e.rec.Versions, VersionRef{Class: class, Name: name, Version: version})
	if !staged {
		e.event(obs.StepSwapped, "", class, name, version)
	}
	return nil
}

// activate moves an artifact's active pointer to a registered version.
func (e *edit) activate(class cfgstore.Class, name string, version int, partner string) error {
	if _, err := e.store.Activate(class, name, version, ""); err != nil {
		return err
	}
	e.rec.Versions = append(e.rec.Versions, VersionRef{Class: class, Name: name, Version: version})
	e.event(obs.StepActivated, partner, class, name, version)
	return nil
}

// event queues one config event, stamped with the edit's current epoch,
// for emission once the change is published.
func (e *edit) event(step, partner string, class cfgstore.Class, name string, version int) {
	e.events = append(e.events, configEvent(step, partner, class, name, version, e.store.Epoch()))
}

// ruleSet returns the named rule set for writing, creating it when the
// model has none. A copy-on-write edit writes its own copy of a set it did
// not create, and on a hub a set new to the hub is registered at version
// 1.
func (e *edit) ruleSet(name string) *rules.Set {
	s, ok := e.m.Rules.Lookup(name)
	if !ok {
		s = rules.NewSet(name)
		e.m.Rules.Replace(s)
		e.own(name)
		if e.h != nil {
			// Registering version 1 of a new name cannot fail.
			_ = e.register(cfgstore.ClassRules, name, 1, "new", false)
		}
		return s
	}
	if e.cow && !e.ownSets[name] {
		s = s.Clone()
		e.m.Rules.Replace(s)
		e.own(name)
	}
	return s
}

func (e *edit) own(set string) {
	if e.ownSets == nil {
		e.ownSets = map[string]bool{}
	}
	e.ownSets[set] = true
}

// addRule adds one business rule to the named set.
func (e *edit) addRule(set string, r rules.Rule) error {
	if err := e.ruleSet(set).Add(r); err != nil {
		return err
	}
	e.rec.RulesAdded++
	return nil
}

// removeRule removes the named rule from a set the model has, reporting
// how many rules went.
func (e *edit) removeRule(set, name string) int {
	if _, ok := e.m.Rules.Lookup(set); !ok {
		return 0
	}
	return e.ruleSet(set).Remove(name)
}

// newRulesVersion registers the named rule set, as the edit leaves it, at
// a new version.
func (e *edit) newRulesVersion(set, note string) error {
	if e.h == nil {
		return nil
	}
	return e.register(cfgstore.ClassRules, set, e.nextVersion(cfgstore.ClassRules, set, 1), note, false)
}

// check refuses a model in which a partner could not be served: it has no
// applicable approval rule, no applicable review rule while invoicing is
// on, or (on a hub) a type of its route has no active version.
func (e *edit) check() error {
	m := e.m
	approval := coverageOf(m.Rules, ApprovalRuleSet, doc.TypePO)
	var review *coverage
	if m.InvoicePrivate != nil {
		review = coverageOf(m.Rules, InvoiceReviewRuleSet, doc.TypeINV)
	}
	deployed := map[string]bool{}
	for _, p := range m.Partners {
		if !approval.covers(p) {
			return fmt.Errorf("core: partner %s would have no applicable %s rule", p.ID, ApprovalRuleSet)
		}
		if review != nil && !review.covers(p) {
			return fmt.Errorf("core: partner %s would have no applicable %s rule", p.ID, InvoiceReviewRuleSet)
		}
		if e.store == nil {
			continue
		}
		r := m.routes[p.ID]
		names := []string{r.publicName, r.bindingName, PrivateProcessName, r.appBinding}
		if m.InvoicePrivate != nil {
			names = append(names, r.invAppBinding, InvoicePrivateProcessName, r.invBindingName, r.invPublicName)
		}
		for _, n := range names {
			if deployed[n] {
				continue
			}
			if v, ok := e.store.Active(classOf(n), n); !ok || v == 0 {
				return fmt.Errorf("core: partner %s routes through %s, which is not deployed", p.ID, n)
			}
			deployed[n] = true
		}
	}
	return nil
}

// coverage indexes the selectors of one rule set for one document type, so
// a check of every partner costs one pass over the rules.
type coverage struct {
	all     bool
	sources map[string]bool
	targets map[string]bool
	pairs   map[[2]string]bool
}

func coverageOf(reg *rules.Registry, set string, dt doc.DocType) *coverage {
	c := &coverage{sources: map[string]bool{}, targets: map[string]bool{}, pairs: map[[2]string]bool{}}
	s, ok := reg.Lookup(set)
	if !ok {
		return c
	}
	wild := func(sel string) bool { return sel == "" || sel == "*" }
	s.Selectors(func(source, target string, rdt doc.DocType) {
		switch {
		case rdt != "" && rdt != dt:
		case wild(source) && wild(target):
			c.all = true
		case wild(source):
			c.targets[target] = true
		case wild(target):
			c.sources[source] = true
		default:
			c.pairs[[2]string{source, target}] = true
		}
	})
	return c
}

func (c *coverage) covers(p TradingPartner) bool {
	return c.all || c.sources[p.ID] || c.targets[p.Backend] || c.pairs[[2]string{p.ID, p.Backend}]
}

// Apply makes one change on a startup model, in place: the model a hub is
// then built on (NewHub). A refused change leaves the model as it was.
// Changes that need a live hub's config (SwapTransform, Rollback, Canary,
// SettleCanary) are refused; apply them with Hub.Apply.
func (m *Model) Apply(c Change) (*ChangeRecord, error) {
	if c == nil {
		return nil, errors.New("core: nil change")
	}
	e := &edit{m: m.clone(), rec: &ChangeRecord{Local: true}, cow: true}
	if err := c.apply(e); err != nil {
		return nil, err
	}
	if err := e.check(); err != nil {
		return nil, err
	}
	*m = *e.m
	return e.rec, nil
}

// AddPartner adds a trading partner to a startup model:
// Apply(AddPartner{p}).
func (m *Model) AddPartner(p TradingPartner) (*ChangeRecord, error) {
	return m.Apply(AddPartner{Partner: p})
}

// Apply makes one change on the live hub. Under the hub's change lock it
// copies the current model snapshot, makes the change on the copy, deploys
// the type versions the change adds, journals the change with its
// artifact, and only then publishes the copy, so every admission sees the
// whole change or none of it. A refused change — invalid, leaving a
// partner without a rule or a deployed type, or (under FailStop) refused
// by the journal — changes nothing.
func (h *Hub) Apply(c Change) (*ChangeRecord, error) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	return h.apply(c, true)
}

// AddPartner adds a trading partner to the live hub: Apply(AddPartner{p}).
func (h *Hub) AddPartner(p TradingPartner) (*ChangeRecord, error) {
	return h.Apply(AddPartner{Partner: p})
}

// EnableInvoicing adds the invoice flow to the live hub:
// Apply(EnableInvoicing{}).
func (h *Hub) EnableInvoicing() (*ChangeRecord, error) {
	return h.Apply(EnableInvoicing{})
}

// apply is Apply under swapMu; a replay of the hub's own journal does not
// journal the change again.
func (h *Hub) apply(c Change, journaled bool) (*ChangeRecord, error) {
	if c == nil {
		return nil, errors.New("core: nil change")
	}
	cur := h.snap.Load()
	e := &edit{
		m:        cur.Model.clone(),
		rec:      &ChangeRecord{Local: true},
		h:        h,
		store:    cur.store.Clone(),
		xforms:   cur.xforms,
		canaries: cur.canaries,
		cow:      true,
	}
	if err := c.apply(e); err != nil {
		return nil, err
	}
	if err := e.check(); err != nil {
		return nil, err
	}
	for _, t := range e.deploy {
		if err := h.deployType(t); err != nil {
			return nil, err
		}
	}
	e.rec.Epoch = e.store.Epoch()
	if journaled {
		if err := h.journalChange(c, e.rec); err != nil {
			return nil, err
		}
	}
	h.recordBodies(e)
	if len(e.systems) > 0 {
		h.mu.Lock()
		maps.Copy(h.Systems, e.systems)
		h.mu.Unlock()
	}
	h.publish(&Snapshot{Model: e.m, store: e.store, cfg: e.store.Snapshot(), xforms: e.xforms, canaries: e.canaries})
	for _, ev := range e.events {
		h.bus.Emit(ev)
	}
	return e.rec, nil
}

// recordBodies keeps, for Rollback, the body of each rule-set and
// transform version a published edit registered: the set or program as the
// edit leaves it. A body is recorded once; an activation of a version finds
// it recorded already.
func (h *Hub) recordBodies(e *edit) {
	for _, v := range e.rec.Versions {
		if _, ok := h.bodies[v]; ok {
			continue
		}
		switch v.Class {
		case cfgstore.ClassRules:
			if set, ok := e.m.Rules.Lookup(v.Name); ok {
				h.bodies[v] = set
			}
		case cfgstore.ClassTransform:
			if t, ok := e.xforms[v.Name]; ok {
				h.bodies[v] = t
			}
		}
	}
}

// publish makes next the hub's current snapshot. Hub.Model follows it for
// callers that read the model as a field.
func (h *Hub) publish(next *Snapshot) {
	h.snap.Store(next)
	h.Model = next.Model
}
