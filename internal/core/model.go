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
// routes messages through the chain, and the change manager (change.go)
// implements Section 4.5/4.6's change classification and locality
// guarantees.
package core

import (
	"fmt"
	"sort"
	"strconv"

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
// of Figure 14/15.
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
}

// BuildModel constructs the advanced model for a population: one public
// process and one binding per distinct protocol, one application binding
// per back end, one private process, and one approval rule per partner per
// targeted back end.
func BuildModel(partners []TradingPartner, backends []Backend) (*Model, error) {
	m := &Model{
		PublicProcesses: map[formats.Format]*wf.TypeDef{},
		Bindings:        map[formats.Format]*wf.TypeDef{},
		AppBindings:     map[string]*wf.TypeDef{},
		Rules:           rules.NewRegistry(),
	}
	byName := map[string]Backend{}
	for _, b := range backends {
		if b.Name == "" || b.Format == "" {
			return nil, fmt.Errorf("core: backend %+v incomplete", b)
		}
		if _, dup := byName[b.Name]; dup {
			return nil, fmt.Errorf("core: duplicate backend %q", b.Name)
		}
		byName[b.Name] = b
		m.Backends = append(m.Backends, b)
		ab, err := BuildAppBinding(b)
		if err != nil {
			return nil, err
		}
		m.AppBindings[b.Name] = ab
	}
	var err error
	m.Private, err = BuildPrivateProcess()
	if err != nil {
		return nil, err
	}
	for _, p := range partners {
		if _, err := m.addPartner(p, byName); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// addPartner performs the model-side work of adding a partner and reports
// whether a new protocol (public process + binding) had to be added.
func (m *Model) addPartner(p TradingPartner, byName map[string]Backend) (newProtocol bool, err error) {
	if p.ID == "" || p.Protocol == "" {
		return false, fmt.Errorf("core: partner %+v incomplete", p)
	}
	for _, existing := range m.Partners {
		if existing.ID == p.ID {
			return false, fmt.Errorf("core: duplicate partner %q", p.ID)
		}
	}
	if _, ok := byName[p.Backend]; !ok {
		return false, fmt.Errorf("core: partner %q references unknown backend %q", p.ID, p.Backend)
	}
	if _, ok := m.PublicProcesses[p.Protocol]; !ok {
		pub, err := BuildPublicProcess(p.Protocol)
		if err != nil {
			return false, err
		}
		bind, err := BuildBinding(p.Protocol)
		if err != nil {
			return false, err
		}
		m.PublicProcesses[p.Protocol] = pub
		m.Bindings[p.Protocol] = bind
		newProtocol = true
	}
	m.Partners = append(m.Partners, p)
	// The partner's business rule, outside any workflow type.
	if err := m.Rules.Set(ApprovalRuleSet).Add(rules.Rule{
		Name:      fmt.Sprintf("approval %s→%s", p.ID, p.Backend),
		Source:    p.ID,
		Target:    p.Backend,
		Condition: approvalCondition(p.ApprovalThreshold),
	}); err != nil {
		return newProtocol, err
	}
	return newProtocol, nil
}

// approvalCondition renders the rule condition of a partner threshold. The
// 'f' format writes every finite threshold as a plain decimal that
// internal/expr parses back to the same float64; %v would write 1e6 as
// "1e+06", which expr rejects.
func approvalCondition(threshold float64) string {
	return "document.amount >= " + strconv.FormatFloat(threshold, 'f', -1, 64)
}

// backendsByName rebuilds the lookup used by addPartner.
func (m *Model) backendsByName() map[string]Backend {
	byName := map[string]Backend{}
	for _, b := range m.Backends {
		byName[b.Name] = b
	}
	return byName
}

// PartnerByID finds a partner.
func (m *Model) PartnerByID(id string) (TradingPartner, bool) {
	for _, p := range m.Partners {
		if p.ID == id {
			return p, true
		}
	}
	return TradingPartner{}, false
}

// BackendByName finds a backend.
func (m *Model) BackendByName(name string) (Backend, bool) {
	for _, b := range m.Backends {
		if b.Name == name {
			return b, true
		}
	}
	return Backend{}, false
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
