package core

import (
	"fmt"
	"strings"

	"repro/internal/wf"
)

// routablePorts are the outbound ports the hub's router (route, exchange.go)
// knows how to move a document out of; deliverablePorts are the inbound
// ports ensureDelivery and the routing fabric know how to deliver into. A
// send or receive step on any other port would only fail mid-exchange, so
// the plan compiler checks membership at deploy time.
var routablePorts = map[string]bool{
	PortPublicToBinding:  true,
	PortBindingToPrivate: true,
	PortPrivateToApp:     true,
	PortAppOut:           true,
	PortPrivateOut:       true,
	PortBindingToPublic:  true,
	PortPublicOut:        true,
	PortPublicSignal:     true,
	PortInvAppOut:        true,
	PortInvPrivOut:       true,
	PortInvBindOut:       true,
}

var deliverablePorts = map[string]bool{
	PortPublicIn:           true,
	PortBindingFromPublic:  true,
	PortPrivateIn:          true,
	PortAppIn:              true,
	PortPrivateFromApp:     true,
	PortBindingFromPrivate: true,
	PortPublicFromBinding:  true,
	PortInvPrivIn:          true,
	PortInvBindIn:          true,
	PortInvPubIn:           true,
}

// checkPort is the hub's wf.PortChecker: it validates each messaging step's
// port against the routing fabric, turning what used to be a runtime
// "unrouteable port" exchange failure into a deploy-time PlanError.
func (h *Hub) checkPort(s *wf.StepDef) error {
	if s.Port == "" {
		return nil // structural validation (wf.Validate) reports missing ports
	}
	switch {
	case s.Kind == wf.StepSend || (s.Kind == wf.StepConnection && s.Dir == wf.DirOut):
		if !routablePorts[s.Port] {
			return fmt.Errorf("hub cannot route outbound port %q", s.Port)
		}
	case s.Kind == wf.StepReceive || (s.Kind == wf.StepConnection && s.Dir == wf.DirIn):
		if !deliverablePorts[s.Port] {
			return fmt.Errorf("hub cannot deliver to inbound port %q", s.Port)
		}
	}
	return nil
}

// deployType deploys one workflow type through the engine's compiling
// Deploy, adding the hub-level outbound check: a public process (PO or
// invoice flow) must send on PortPublicOut, or every exchange through it
// would end in ErrNoOutbound. Catching that shape here makes the runtime
// ErrNoOutbound path unreachable for compiled deployments. Version
// management is the caller's: the startup seed and the change path
// register what they deploy.
func (h *Hub) deployType(t *wf.TypeDef) error {
	if isPublicProcess(t.Name) && !sendsOnPublicOut(t) {
		perr := wf.PlanErrors{{
			Class:  wf.PlanUnroutablePort,
			Type:   t.Key(),
			Step:   "",
			Detail: fmt.Sprintf("public process has no send on %q: every exchange would fail with %v", PortPublicOut, ErrNoOutbound),
		}}
		return fmt.Errorf("core: deploy %s: %w", t.Name, perr)
	}
	return h.Engine.Deploy(t)
}

// isPublicProcess reports whether the type name identifies a public process
// of either flow ("public:<protocol>" or "public-inv:<protocol>").
func isPublicProcess(name string) bool {
	return strings.HasPrefix(name, "public:") || strings.HasPrefix(name, "public-inv:")
}

// sendsOnPublicOut reports whether any send step (or outbound connection)
// of the type targets the network-facing port.
func sendsOnPublicOut(t *wf.TypeDef) bool {
	for i := range t.Steps {
		s := &t.Steps[i]
		if s.Port != PortPublicOut {
			continue
		}
		if s.Kind == wf.StepSend || (s.Kind == wf.StepConnection && s.Dir == wf.DirOut) {
			return true
		}
	}
	return false
}
