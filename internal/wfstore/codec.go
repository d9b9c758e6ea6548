package wfstore

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"repro/internal/doc"
	"repro/internal/wf"
)

// The instance codec serializes wf.Instance to JSON. Instance data values
// are wrapped in tagged envelopes so documents round-trip as their concrete
// Go types rather than as generic maps.

type taggedValue struct {
	Kind  string          `json:"k"`
	Value json.RawMessage `json:"v"`
}

const (
	kindString = "s"
	kindNumber = "n"
	kindBool   = "b"
	kindBytes  = "x"
	kindPO     = "po"
	kindPOA    = "poa"
	kindRFQ    = "rfq"
	kindQuote  = "qt"
)

func encodeValue(v any) (taggedValue, error) {
	wrap := func(kind string, payload any) (taggedValue, error) {
		raw, err := json.Marshal(payload)
		if err != nil {
			return taggedValue{}, err
		}
		return taggedValue{Kind: kind, Value: raw}, nil
	}
	switch x := v.(type) {
	case string:
		return wrap(kindString, x)
	case bool:
		return wrap(kindBool, x)
	case int:
		return wrap(kindNumber, float64(x))
	case int64:
		return wrap(kindNumber, float64(x))
	case float64:
		return wrap(kindNumber, x)
	case []byte:
		return wrap(kindBytes, base64.StdEncoding.EncodeToString(x))
	case *doc.PurchaseOrder:
		return wrap(kindPO, x)
	case *doc.PurchaseOrderAck:
		return wrap(kindPOA, x)
	case *doc.RequestForQuote:
		return wrap(kindRFQ, x)
	case *doc.Quote:
		return wrap(kindQuote, x)
	}
	return taggedValue{}, fmt.Errorf("wfstore: unsupported instance data type %T (durable stores hold primitives and normalized documents only)", v)
}

func decodeValue(tv taggedValue) (any, error) {
	switch tv.Kind {
	case kindString:
		var s string
		return s, unmarshalInto(tv.Value, &s)
	case kindBool:
		var b bool
		return b, unmarshalInto(tv.Value, &b)
	case kindNumber:
		var f float64
		return f, unmarshalInto(tv.Value, &f)
	case kindBytes:
		var s string
		if err := unmarshalInto(tv.Value, &s); err != nil {
			return nil, err
		}
		return base64.StdEncoding.DecodeString(s)
	case kindPO:
		var d doc.PurchaseOrder
		return &d, unmarshalInto(tv.Value, &d)
	case kindPOA:
		var d doc.PurchaseOrderAck
		return &d, unmarshalInto(tv.Value, &d)
	case kindRFQ:
		var d doc.RequestForQuote
		return &d, unmarshalInto(tv.Value, &d)
	case kindQuote:
		var d doc.Quote
		return &d, unmarshalInto(tv.Value, &d)
	}
	return nil, fmt.Errorf("wfstore: unknown data kind %q", tv.Kind)
}

func unmarshalInto(raw json.RawMessage, v any) error {
	return json.Unmarshal(raw, v)
}

// persistedInstance mirrors wf.Instance with codec-friendly data: step runs
// keyed by step name, and the signaled arcs keyed "from→to".
type persistedInstance struct {
	ID         string                 `json:"id"`
	Type       string                 `json:"type"`
	Version    int                    `json:"version"`
	State      wf.InstState           `json:"state"`
	Data       map[string]taggedValue `json:"data"`
	Steps      map[string]wf.StepRun  `json:"steps"`
	Arcs       map[string]int         `json:"arcs"`
	Parent     string                 `json:"parent,omitempty"`
	ParentStep string                 `json:"parentStep,omitempty"`
	History    []wf.Event             `json:"history"`
	Error      string                 `json:"error,omitempty"`
}

func encodeInstance(in *wf.Instance) (json.RawMessage, error) {
	p := persistedInstance{
		ID: in.ID, Type: in.Type, Version: in.Version, State: in.State,
		Data:  map[string]taggedValue{},
		Steps: map[string]wf.StepRun{}, Arcs: map[string]int{},
		Parent: in.Parent, ParentStep: in.ParentStep,
		History: in.History, Error: in.Error,
	}
	for k, v := range in.Data {
		tv, err := encodeValue(v)
		if err != nil {
			return nil, fmt.Errorf("wfstore: instance %s data key %q: %w", in.ID, k, err)
		}
		p.Data[k] = tv
	}
	in.RangeSteps(func(name string, run wf.StepRun) bool {
		p.Steps[name] = run
		return true
	})
	in.RangeArcs(func(key string, sig int) bool {
		p.Arcs[key] = sig
		return true
	})
	return json.Marshal(p)
}

func decodeInstance(raw json.RawMessage) (*wf.Instance, error) {
	var p persistedInstance
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	in := &wf.Instance{
		ID: p.ID, Type: p.Type, Version: p.Version, State: p.State,
		Data:   map[string]any{},
		Parent: p.Parent, ParentStep: p.ParentStep,
		History: p.History, Error: p.Error,
	}
	if p.History != nil {
		// Like the engine's persist, keep no append headroom: Unmarshal
		// grows the slice by append.
		in.History = make([]wf.Event, len(p.History))
		copy(in.History, p.History)
	}
	in.SetRuns(p.Steps, p.Arcs)
	for k, tv := range p.Data {
		v, err := decodeValue(tv)
		if err != nil {
			return nil, fmt.Errorf("wfstore: instance %s data key %q: %w", p.ID, k, err)
		}
		in.Data[k] = v
	}
	return in, nil
}
