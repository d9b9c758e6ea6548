// Package core implements the paper's contribution (Section 4): B2B
// integration through public processes, private processes and bindings.
//
// A public process implements one B2B protocol's organization-external
// message exchange behavior and operates only on that protocol's document
// formats. A binding connects a public process to a private process and is
// where document transformations to and from the normalized format live. A
// private process implements the enterprise's business logic, operates only
// on the normalized format, and delegates trading-partner-specific
// decisions to externally defined business rules — so it never has to
// change when partners, protocols or back ends are added. Application
// bindings connect the private process to back-end application systems the
// same way public bindings connect it to trading partners.
//
// All four process kinds are ordinary workflow types executed by the
// internal/wf engine; the architecture is about where concerns live, not
// about different execution machinery. The Hub (hub.go) is the runtime that
// routes messages through the chain, and the change path (change.go)
// implements Section 4.5/4.6's change classification and locality
// guarantees.
package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/rules"
	"repro/internal/wf"
)

// TradingPartner is a partner in the advanced model. Unlike the naive
// model, its threshold lives in the rule registry, never in workflow types.
type TradingPartner struct {
	// ID is the routing identifier ("TP1").
	ID string
	// Name is the display name.
	Name string
	// DUNS is the partner's D-U-N-S number.
	DUNS string
	// Protocol is the B2B protocol the partner exchanges documents in.
	Protocol formats.Format
	// Backend names the back-end application this partner's orders target
	// (enterprise-internal routing configuration).
	Backend string
	// ApprovalThreshold is the partner-specific business rule input: orders
	// at or above it need approval.
	ApprovalThreshold float64
}

// Backend is a back-end application in the advanced model.
type Backend struct {
	// Name identifies the system ("SAP").
	Name string
	// Format is its native document format.
	Format formats.Format
}

// ApprovalRuleSet is the rule set name the private process binds to — the
// paper's check-need-for-approval function.
const ApprovalRuleSet = "check-need-for-approval"

// Model is the complete advanced integration model: the artifact inventory
// of Figure 14/15. A model is changed through Apply: in place while it is
// a startup model, and by copy on a live hub (Hub.Apply), which never
// writes a model it has published.
type Model struct {
	// Partners and Backends are the population.
	Partners []TradingPartner
	Backends []Backend

	// PublicProcesses and Bindings exist once per distinct B2B protocol.
	PublicProcesses map[formats.Format]*wf.TypeDef
	Bindings        map[formats.Format]*wf.TypeDef
	// Private is the single trading-partner-independent private process.
	Private *wf.TypeDef
	// AppBindings exist once per back-end application.
	AppBindings map[string]*wf.TypeDef
	// Rules is the external business-rule registry.
	Rules *rules.Registry

	// The optional invoice flow (EnableInvoicing, invoice.go): a second
	// private process with its own bindings and public processes.
	InvoicePrivate     *wf.TypeDef
	InvoicePublic      map[formats.Format]*wf.TypeDef
	InvoiceBindings    map[formats.Format]*wf.TypeDef
	InvoiceAppBindings map[string]*wf.TypeDef

	// routes indexes Partners by ID, each with the type names its
	// exchanges run; backends indexes Backends by name.
	routes   map[string]*resolvedRoute
	backends map[string]Backend
}

// resolvedRoute is one partner's entry in the model's partner index: the
// partner record plus every workflow type name its exchanges route
// through, resolved once when the partner is added instead of per
// exchange. The invoice names are set while invoicing is on.
type resolvedRoute struct {
	partner TradingPartner

	publicName  string
	bindingName string
	appBinding  string

	invPublicName  string
	invBindingName string
	invAppBinding  string
}

// newRoute indexes p. Its type names are those of the model's processes
// for its protocol and back end, so partners share them.
func (m *Model) newRoute(p TradingPartner) *resolvedRoute {
	r := &resolvedRoute{
		partner:     p,
		publicName:  m.PublicProcesses[p.Protocol].Name,
		bindingName: m.Bindings[p.Protocol].Name,
		appBinding:  m.AppBindings[p.Backend].Name,
	}
	if m.InvoicePrivate != nil {
		r.invPublicName = m.InvoicePublic[p.Protocol].Name
		r.invBindingName = m.InvoiceBindings[p.Protocol].Name
		r.invAppBinding = m.InvoiceAppBindings[p.Backend].Name
	}
	return r
}

// uses reports whether the named workflow type serves the route.
func (r *resolvedRoute) uses(name string) bool {
	switch name {
	case r.publicName, r.bindingName, r.appBinding,
		r.invPublicName, r.invBindingName, r.invAppBinding,
		PrivateProcessName, InvoicePrivateProcessName:
		return true
	}
	return false
}

// BuildModel constructs the advanced model for a population: one public
// process and one binding per distinct protocol, one application binding
// per back end, one private process, and one approval rule per partner per
// targeted back end.
func BuildModel(partners []TradingPartner, backends []Backend) (*Model, error) {
	m := &Model{
		Partners:        make([]TradingPartner, 0, len(partners)),
		PublicProcesses: map[formats.Format]*wf.TypeDef{},
		Bindings:        map[formats.Format]*wf.TypeDef{},
		AppBindings:     map[string]*wf.TypeDef{},
		Rules:           rules.NewRegistry(),
		routes:          make(map[string]*resolvedRoute, len(partners)),
		backends:        make(map[string]Backend, len(backends)),
	}
	var err error
	if m.Private, err = BuildPrivateProcess(); err != nil {
		return nil, err
	}
	e := &edit{m: m, rec: &ChangeRecord{}}
	for _, b := range backends {
		if err := e.addBackend(b); err != nil {
			return nil, err
		}
	}
	for _, p := range partners {
		if err := e.addPartner(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// clone returns a copy of m that a live hub's edit may write: the
// population, its indexes, the type maps and the rule registry are copied;
// type definitions and rule sets are shared, and an edit replaces them
// instead of writing them.
func (m *Model) clone() *Model {
	c := *m
	c.Partners = slices.Clip(m.Partners)
	c.Backends = slices.Clip(m.Backends)
	c.PublicProcesses = maps.Clone(m.PublicProcesses)
	c.Bindings = maps.Clone(m.Bindings)
	c.AppBindings = maps.Clone(m.AppBindings)
	c.Rules = m.Rules.Clone()
	c.InvoicePublic = maps.Clone(m.InvoicePublic)
	c.InvoiceBindings = maps.Clone(m.InvoiceBindings)
	c.InvoiceAppBindings = maps.Clone(m.InvoiceAppBindings)
	c.routes = maps.Clone(m.routes)
	c.backends = maps.Clone(m.backends)
	return &c
}

// approvalRule is a partner's business rule in the approval set.
func approvalRule(p TradingPartner) rules.Rule {
	return rules.Rule{
		Name:      "approval " + p.ID + "→" + p.Backend,
		Source:    p.ID,
		Target:    p.Backend,
		Condition: approvalCondition(p.ApprovalThreshold),
	}
}

// reviewRule is a partner's business rule in the invoice review set; it
// reuses the partner's threshold.
func reviewRule(p TradingPartner) rules.Rule {
	return rules.Rule{
		Name:      "invoice review " + p.ID + "→" + p.Backend,
		Source:    p.ID,
		Target:    p.Backend,
		DocType:   doc.TypeINV,
		Condition: approvalCondition(p.ApprovalThreshold),
	}
}

// approvalCondition renders the rule condition of a partner threshold. The
// 'f' format writes every finite threshold as a plain decimal that
// internal/expr parses back to the same float64; %v would write 1e6 as
// "1e+06", which expr rejects.
func approvalCondition(threshold float64) string {
	return "document.amount >= " + strconv.FormatFloat(threshold, 'f', -1, 64)
}

// PartnerByID finds a partner.
func (m *Model) PartnerByID(id string) (TradingPartner, bool) {
	if r, ok := m.routes[id]; ok {
		return r.partner, true
	}
	return TradingPartner{}, false
}

// BackendByName finds a backend.
func (m *Model) BackendByName(name string) (Backend, bool) {
	b, ok := m.backends[name]
	return b, ok
}

// Protocols lists the model's distinct protocols, sorted.
func (m *Model) Protocols() []formats.Format {
	out := make([]formats.Format, 0, len(m.PublicProcesses))
	for p := range m.PublicProcesses {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllTypes lists every workflow type of the model in deterministic order —
// the artifact set the complexity experiments measure.
func (m *Model) AllTypes() []*wf.TypeDef {
	var out []*wf.TypeDef
	for _, p := range m.Protocols() {
		out = append(out, m.PublicProcesses[p], m.Bindings[p])
	}
	out = append(out, m.Private)
	names := make([]string, 0, len(m.AppBindings))
	for n := range m.AppBindings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, m.AppBindings[n])
	}
	if m.InvoicePrivate != nil {
		for _, p := range m.Protocols() {
			if t, ok := m.InvoicePublic[p]; ok {
				out = append(out, t)
			}
			if t, ok := m.InvoiceBindings[p]; ok {
				out = append(out, t)
			}
		}
		out = append(out, m.InvoicePrivate)
		invNames := make([]string, 0, len(m.InvoiceAppBindings))
		for n := range m.InvoiceAppBindings {
			invNames = append(invNames, n)
		}
		sort.Strings(invNames)
		for _, n := range invNames {
			out = append(out, m.InvoiceAppBindings[n])
		}
	}
	return out
}

// typeDef returns the model's current definition of the named workflow
// artifact (nil when the model has none).
func (m *Model) typeDef(name string) *wf.TypeDef {
	for _, t := range m.AllTypes() {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// setTypeDef makes t the model's definition of its artifact. The artifact
// must already exist unless added is set, and an invoice artifact needs the
// invoice flow.
func (m *Model) setTypeDef(t *wf.TypeDef, added bool) error {
	if !added && m.typeDef(t.Name) == nil {
		return fmt.Errorf("core: %s is not an artifact of the model", t.Name)
	}
	prefix, rest, _ := strings.Cut(t.Name, ":")
	if strings.HasSuffix(prefix, "-inv") && m.InvoicePrivate == nil {
		return fmt.Errorf("core: %s needs the invoice flow", t.Name)
	}
	switch prefix {
	case "public":
		m.PublicProcesses[formats.Format(rest)] = t
	case "binding":
		m.Bindings[formats.Format(rest)] = t
	case "appbinding":
		m.AppBindings[rest] = t
	case "public-inv":
		m.InvoicePublic[formats.Format(rest)] = t
	case "binding-inv":
		m.InvoiceBindings[formats.Format(rest)] = t
	case "appbinding-inv":
		m.InvoiceAppBindings[rest] = t
	default:
		switch t.Name {
		case PrivateProcessName:
			m.Private = t
		case InvoicePrivateProcessName:
			m.InvoicePrivate = t
		default:
			return fmt.Errorf("core: %s is not an artifact of the model", t.Name)
		}
	}
	return nil
}

// PaperFigure14Model is the advanced counterpart of Figure 9's population:
// TP1 (EDI, 55000, SAP) and TP2 (RosettaNet, 40000, Oracle).
func PaperFigure14Model() (*Model, error) {
	return BuildModel(
		[]TradingPartner{
			{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111", Protocol: formats.EDI, Backend: "SAP", ApprovalThreshold: 55000},
			{ID: "TP2", Name: "Trading Partner 2", DUNS: "222222222", Protocol: formats.RosettaNet, Backend: "Oracle", ApprovalThreshold: 40000},
		},
		[]Backend{
			{Name: "SAP", Format: formats.SAPIDoc},
			{Name: "Oracle", Format: formats.OracleOIF},
		},
	)
}

// Figure15Partner is the third partner of Figure 15: TP3 using OAGIS with a
// 10000 threshold, targeting SAP.
func Figure15Partner() TradingPartner {
	return TradingPartner{
		ID: "TP3", Name: "Trading Partner 3", DUNS: "333333333",
		Protocol: formats.OAGIS, Backend: "SAP", ApprovalThreshold: 10000,
	}
}
