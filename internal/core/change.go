package core

import (
	"fmt"

	"repro/internal/formats"
	"repro/internal/rules"
)

// ChangeRecord accounts for exactly which artifacts a model change touched
// — the Section 4.5/4.6 evidence. In the advanced architecture every
// routine population change is local: the private process is never touched
// by adding partners, protocols or back ends.
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
}

// AddPartner adds a trading partner to the model (Section 4.6: "adding a
// new trading partner only requires to add business rules … If the new
// trading partner complies to an already implemented B2B protocol" nothing
// else changes; otherwise the protocol's public process and binding are
// added).
func (m *Model) AddPartner(p TradingPartner) (*ChangeRecord, error) {
	rec := &ChangeRecord{
		Description: fmt.Sprintf("add trading partner %s (%s → %s)", p.ID, p.Protocol, p.Backend),
		Local:       true,
	}
	newProtocol, err := m.addPartner(p, m.backendsByName())
	if err != nil {
		return nil, err
	}
	rec.RulesAdded = 1
	if newProtocol {
		rec.TypesAdded = append(rec.TypesAdded, PublicProcessName(p.Protocol), BindingName(p.Protocol))
	}
	return rec, nil
}

// RemovePartner removes a partner and its business rules. The protocol's
// public process and binding remain (other partners may use them); the
// private process is untouched.
func (m *Model) RemovePartner(id string) (*ChangeRecord, error) {
	idx := -1
	for i, p := range m.Partners {
		if p.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("core: unknown partner %q", id)
	}
	p := m.Partners[idx]
	m.Partners = append(m.Partners[:idx], m.Partners[idx+1:]...)
	removed := m.Rules.Set(ApprovalRuleSet).Remove(fmt.Sprintf("approval %s→%s", p.ID, p.Backend))
	return &ChangeRecord{
		Description:  "remove trading partner " + id,
		Local:        true,
		RulesRemoved: removed,
	}, nil
}

// AddBackend adds a back-end application: one application binding, plus
// whatever rules its partners bring later. The private process and every
// public process are untouched (Section 4.6: "adding new back end
// application system is analogous to adding a new B2B protocol standard").
func (m *Model) AddBackend(b Backend) (*ChangeRecord, error) {
	if _, dup := m.backendsByName()[b.Name]; dup {
		return nil, fmt.Errorf("core: duplicate backend %q", b.Name)
	}
	ab, err := BuildAppBinding(b)
	if err != nil {
		return nil, err
	}
	m.Backends = append(m.Backends, b)
	m.AppBindings[b.Name] = ab
	return &ChangeRecord{
		Description: "add backend " + b.Name,
		Local:       true,
		TypesAdded:  []string{AppBindingName(b.Name)},
	}, nil
}

// ChangePartnerThreshold changes one partner's approval threshold — a
// rules-only change, invisible to every process type.
func (m *Model) ChangePartnerThreshold(id string, threshold float64) (*ChangeRecord, error) {
	idx := -1
	for i, p := range m.Partners {
		if p.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("core: unknown partner %q", id)
	}
	p := &m.Partners[idx]
	ruleName := fmt.Sprintf("approval %s→%s", p.ID, p.Backend)
	set := m.Rules.Set(ApprovalRuleSet)
	removed := set.Remove(ruleName)
	if err := set.Add(rules.Rule{
		Name:      ruleName,
		Source:    p.ID,
		Target:    p.Backend,
		Condition: approvalCondition(threshold),
	}); err != nil {
		return nil, err
	}
	p.ApprovalThreshold = threshold
	return &ChangeRecord{
		Description:  fmt.Sprintf("change %s approval threshold to %v", id, threshold),
		Local:        true,
		RulesAdded:   1,
		RulesRemoved: removed,
	}, nil
}

// AddPrivateAuditStep applies the Section 4.5 local private-process change:
// an audit step on the outgoing path. Only the private process changes.
func (m *Model) AddPrivateAuditStep() (*ChangeRecord, error) {
	t, err := BuildPrivateProcessWithAudit()
	if err != nil {
		return nil, err
	}
	t.Version = m.Private.Version + 1
	m.Private = t
	return &ChangeRecord{
		Description:    "add audit step to private process",
		Local:          true,
		TypesModified:  []string{PrivateProcessName},
		PrivateTouched: true,
	}, nil
}

// EnableTransportAcks applies the Section 4.5 local public-process change:
// the protocol's public process models explicit transport acknowledgments.
// The binding and private process are untouched because acknowledgments
// are not passed on.
func (m *Model) EnableTransportAcks(p TradingPartner) (*ChangeRecord, error) {
	old, ok := m.PublicProcesses[p.Protocol]
	if !ok {
		return nil, fmt.Errorf("core: no public process for protocol %s", p.Protocol)
	}
	t, err := BuildPublicProcessWithAcks(p.Protocol)
	if err != nil {
		return nil, err
	}
	t.Version = old.Version + 1
	m.PublicProcesses[p.Protocol] = t
	return &ChangeRecord{
		Description:   fmt.Sprintf("model transport acknowledgments in %s public process", p.Protocol),
		Local:         true,
		TypesModified: []string{PublicProcessName(p.Protocol)},
	}, nil
}

// AddPartner applies the model change and deploys whatever it added, making
// the hub serve the new partner immediately.
func (h *Hub) AddPartner(p TradingPartner) (*ChangeRecord, error) {
	rec, err := h.Model.AddPartner(p)
	if err != nil {
		return nil, err
	}
	h.invalidateRoutes()
	// Deploy (and so recompile) only when the change actually added types:
	// a partner on an existing protocol reuses the deployed plans as-is —
	// the change-impact sweep in the ablation suite counts on this.
	if len(rec.TypesAdded) > 0 {
		if _, ok := h.Model.PublicProcesses[p.Protocol]; ok {
			if err := h.deployType(h.Model.PublicProcesses[p.Protocol]); err != nil {
				return rec, err
			}
			if err := h.deployType(h.Model.Bindings[p.Protocol]); err != nil {
				return rec, err
			}
		}
	}
	return rec, nil
}

// AddBackend applies the model change and deploys the new system + binding.
func (h *Hub) AddBackend(b Backend) (*ChangeRecord, error) {
	rec, err := h.Model.AddBackend(b)
	if err != nil {
		return nil, err
	}
	if err := h.DeployBackend(b); err != nil {
		return rec, err
	}
	return rec, nil
}

// AddPrivateAuditStep applies and deploys the audit-step change.
func (h *Hub) AddPrivateAuditStep() (*ChangeRecord, error) {
	rec, err := h.Model.AddPrivateAuditStep()
	if err != nil {
		return nil, err
	}
	return rec, h.deployType(h.Model.Private)
}

// EnableTransportAcks applies and deploys the public-process ack change.
func (h *Hub) EnableTransportAcks(p TradingPartner) (*ChangeRecord, error) {
	rec, err := h.Model.EnableTransportAcks(p)
	if err != nil {
		return nil, err
	}
	h.invalidateRoutes()
	return rec, h.deployType(h.Model.PublicProcesses[p.Protocol])
}

// EnableFunctionalAcks switches a protocol's public process to the variant
// that returns an X12 997 functional acknowledgment on receipt — another
// Section 4.5 local public-process change: the binding and private process
// never see the signal.
func (m *Model) EnableFunctionalAcks(p formats.Format) (*ChangeRecord, error) {
	old, ok := m.PublicProcesses[p]
	if !ok {
		return nil, fmt.Errorf("core: no public process for protocol %s", p)
	}
	t, err := BuildPublicProcessWithFunctionalAck(p, old.Version+1)
	if err != nil {
		return nil, err
	}
	m.PublicProcesses[p] = t
	return &ChangeRecord{
		Description:   fmt.Sprintf("return 997 functional acknowledgments in %s public process", p),
		Local:         true,
		TypesModified: []string{PublicProcessName(p)},
	}, nil
}

// EnableFunctionalAcks applies and deploys the 997 change on a live hub.
func (h *Hub) EnableFunctionalAcks(p formats.Format) (*ChangeRecord, error) {
	rec, err := h.Model.EnableFunctionalAcks(p)
	if err != nil {
		return nil, err
	}
	h.invalidateRoutes()
	return rec, h.deployType(h.Model.PublicProcesses[p])
}
