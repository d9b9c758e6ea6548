package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/transform"
)

// workload is one named traffic mix: how its inputs are generated, how its
// hubs are set up, and the fixed open-loop rate it is driven at.
type workload struct {
	name string
	// rate is the open-loop offered rate (ex/s), about a quarter of the
	// capacity the closed loop measured at the seed on a 2-vCPU Xeon host
	// (README.md says why not half).
	rate float64
	// inputs generates n requests from the seed.
	inputs func(seed int64, n int) ([]*request, error)
	// setup builds the system under test; tr is nil for untraced runs.
	setup func(env setupEnv) (*rig, error)
}

var workloads = []workload{
	{name: "inproc-uniform", rate: 1000, inputs: uniformInputs(false), setup: setupInproc},
	{name: "wire-durable", rate: 500, inputs: uniformInputs(true), setup: setupWire},
	{name: "partners-skewed", rate: 1000, inputs: skewedInputs, setup: setupSkewed},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
}

// request is one generated input, built entirely before timing starts.
type request struct {
	// idx is the request's position in its repetition.
	idx      int
	kind     core.DocKind
	partner  string
	backend  string
	protocol formats.Format
	// po is the normalized order (PO requests).
	po *doc.PurchaseOrder
	// core is the in-process submission; body the pre-marshaled wire
	// SubmitRequest (wire-durable).
	core core.Request
	body json.RawMessage
	// wire is the protocol-native PO (wire-durable).
	wire []byte
	// acked is closed once a billed PO's exchange has ended; billsAck is
	// the billed PO's acked, so an invoice is never sent before the
	// acknowledgment of the order it bills.
	acked    chan struct{}
	billsAck <-chan struct{}
}

// result is what one request came back with.
type result struct {
	err  error
	poa  *doc.PurchaseOrderAck
	wire []byte
	exID string
}

// rig is a set-up system under test.
type rig struct {
	hubs []*core.Hub
	// submit sends r without blocking on its result; done is called
	// exactly once, from another goroutine, when the result is in.
	submit func(r *request, done func(result))
	// local reports whether a partner is owned by the node the load is
	// sent to (always true in process).
	local func(partner string) bool
	// shutdown drains the system; release then frees what the post-drain
	// checks still needed (journals, files). release may be nil.
	shutdown func() error
	release  func() error
}

// setupEnv is what a workload's setup may use.
type setupEnv struct {
	dir string
	tr  *tracer
}

var seller = doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"}

func party(p core.TradingPartner) doc.Party {
	return doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
}

// figure15Partners is the Figure 14 population plus the Figure 15 OAGIS
// partner.
func figure15Partners() []core.TradingPartner {
	m, err := core.PaperFigure14Model()
	if err != nil {
		panic(err) // the paper model is a constant
	}
	return append(append([]core.TradingPartner(nil), m.Partners...), core.Figure15Partner())
}

var paperBackends = []core.Backend{
	{Name: "SAP", Format: formats.SAPIDoc},
	{Name: "Oracle", Format: formats.OracleOIF},
}

// skewedPartners is the 48-partner population of partners-skewed: spread
// across the three protocols and both back ends, with distinct approval
// thresholds.
func skewedPartners() []core.TradingPartner {
	protocols := []formats.Format{formats.EDI, formats.RosettaNet, formats.OAGIS}
	out := make([]core.TradingPartner, 48)
	for i := range out {
		out[i] = core.TradingPartner{
			ID:                fmt.Sprintf("P%02d", i+1),
			Name:              fmt.Sprintf("Partner %02d", i+1),
			DUNS:              fmt.Sprintf("%09d", 100000000+i+1),
			Protocol:          protocols[i%len(protocols)],
			Backend:           paperBackends[(i/len(protocols))%len(paperBackends)].Name,
			ApprovalThreshold: float64(5000 + 1000*i),
		}
	}
	return out
}

// uniformInputs cycles normalized POs round-robin across TP1, TP2 and TP3.
// With wire set, each PO is also encoded in its partner's protocol and
// wrapped in the wire-po SubmitRequest the daemon receives.
func uniformInputs(wire bool) func(seed int64, n int) ([]*request, error) {
	return func(seed int64, n int) ([]*request, error) {
		partners := figure15Partners()
		gens := make([]*doc.Generator, len(partners))
		for i := range gens {
			gens[i] = doc.NewGenerator(seed*1000 + int64(i))
		}
		reg := &transform.Registry{}
		transform.RegisterAll(reg)
		codecs := core.NewCodecRegistry()
		reqs := make([]*request, n)
		for i := range reqs {
			p := partners[i%len(partners)]
			po := gens[i%len(partners)].PO(party(p), seller)
			r := &request{kind: core.DocPO, partner: p.ID, backend: p.Backend, protocol: p.Protocol, po: po}
			r.core = core.Request{Kind: core.DocPO, PO: po}
			if wire {
				if err := encodeWire(r, reg, codecs); err != nil {
					return nil, err
				}
			}
			reqs[i] = r
		}
		return reqs, nil
	}
}

func encodeWire(r *request, reg *transform.Registry, codecs *formats.Registry) error {
	native, err := reg.FromNormalized(r.protocol, doc.TypePO, r.po)
	if err != nil {
		return err
	}
	codec, err := codecs.Lookup(r.protocol, doc.TypePO)
	if err != nil {
		return err
	}
	if r.wire, err = codec.Encode(native); err != nil {
		return err
	}
	r.kind = core.DocWirePO
	r.core = core.Request{Kind: core.DocWirePO, Protocol: r.protocol, Wire: r.wire, PartnerID: r.partner}
	r.body, err = json.Marshal(server.SubmitRequest{
		Kind: string(core.DocWirePO), Protocol: string(r.protocol), Wire: r.wire, PartnerID: r.partner, Async: true,
	})
	return err
}

// invoiceLag is how many requests before an invoice the PO it bills was
// sent: long enough that the acknowledgment is in by the invoice's due time.
const invoiceLag = 256

// skewedInputs draws each PO's partner Zipf-skewed over the 48 partners.
// Every fourth request (a fixed 25% share) is an outbound invoice billing a
// distinct PO sent invoiceLag requests earlier (or the nearest unbilled one
// before it), so the back ends' pending-invoice lists have the same length
// on every run.
func skewedInputs(seed int64, n int) ([]*request, error) {
	partners := skewedPartners()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(partners)-1))
	gens := make([]*doc.Generator, len(partners))
	for i := range gens {
		gens[i] = doc.NewGenerator(seed*1000 + int64(i))
	}
	billed := make([]bool, n)
	reqs := make([]*request, n)
	for i := range reqs {
		if i%4 == 3 {
			if j := billable(reqs, billed, i-invoiceLag); j >= 0 {
				billed[j] = true
				po := reqs[j]
				po.acked = make(chan struct{})
				reqs[i] = &request{
					kind: core.DocInvoice, partner: po.partner, backend: po.backend, protocol: po.protocol,
					billsAck: po.acked,
					core:     core.Request{Kind: core.DocInvoice, PartnerID: po.partner, POID: po.po.ID},
				}
				continue
			}
		}
		k := zipf.Uint64()
		p := partners[k]
		po := gens[k].PO(party(p), seller)
		reqs[i] = &request{
			kind: core.DocPO, partner: p.ID, backend: p.Backend, protocol: p.Protocol, po: po,
			core: core.Request{Kind: core.DocPO, PO: po},
		}
	}
	return reqs, nil
}

// billable finds the latest unbilled PO at or before index from.
func billable(reqs []*request, billed []bool, from int) int {
	for j := from; j >= 0; j-- {
		if reqs[j].kind == core.DocPO && !billed[j] {
			return j
		}
	}
	return -1
}

// baseline is the ROADMAP baseline scheduler shape, on the tracer's bus in
// traced runs.
func baseline(env setupEnv) []core.HubOption {
	opts := []core.HubOption{core.WithShards(8), core.WithWorkersPerShard(4)}
	if env.tr != nil {
		opts = append(opts, core.WithBus(env.tr.bus("")))
	}
	return opts
}

// wrapTraced puts the tracer's timing wrapper around every back end.
func wrapTraced(h *core.Hub, tr *tracer) {
	if tr != nil {
		h.WrapBackends(func(sys backend.System) backend.System { return &timedSystem{System: sys, tr: tr} })
	}
}

// setupInproc is the Figure 14 model plus the Figure 15 partner on one
// in-process hub, no journal.
func setupInproc(env setupEnv) (*rig, error) {
	m, err := core.PaperFigure14Model()
	if err != nil {
		return nil, err
	}
	h, err := core.NewHub(m, baseline(env)...)
	if err != nil {
		return nil, err
	}
	if _, err := h.AddPartner(core.Figure15Partner()); err != nil {
		return nil, err
	}
	wrapTraced(h, env.tr)
	h.StartScheduler()
	return inprocRig(h, env.tr), nil
}

// setupSkewed is the 48-partner model with invoicing, in process, no
// journal.
func setupSkewed(env setupEnv) (*rig, error) {
	m, err := core.BuildModel(skewedPartners(), paperBackends)
	if err != nil {
		return nil, err
	}
	h, err := core.NewHub(m, baseline(env)...)
	if err != nil {
		return nil, err
	}
	if _, err := h.EnableInvoicing(); err != nil {
		return nil, err
	}
	wrapTraced(h, env.tr)
	h.StartScheduler()
	return inprocRig(h, env.tr), nil
}

func inprocRig(h *core.Hub, tr *tracer) *rig {
	ctx := context.Background()
	return &rig{
		hubs: []*core.Hub{h},
		submit: func(r *request, done func(result)) {
			fut, err := h.DoAsync(ctx, r.core)
			if err != nil {
				done(result{err: err})
				return
			}
			if tr != nil {
				tr.submitted(r, time.Now())
			}
			go func() {
				res := fut.Result(ctx)
				out := result{err: res.Err, poa: res.POA, wire: res.Wire}
				if res.Exchange != nil {
					out.exID = res.Exchange.ID
				}
				done(out)
			}()
		},
		local: func(string) bool { return true },
		shutdown: func() error {
			_, err := h.Drain(ctx)
			return err
		},
	}
}

// wireNodes are the two cluster node IDs of wire-durable; with TP1..TP3
// each owns at least one partner.
var wireNodes = []string{"n1", "n2"}

// setupWire is the daemon shape: two journaled cluster nodes on loopback
// TCP, each owning at least one partner, and the client connections the
// load is sent over (to the first node only).
func setupWire(env setupEnv) (_ *rig, err error) {
	// drains run at shutdown, newest first: clients, then each node stops
	// and drains its hub and checkpoints its journal. releases run after
	// the post-drain checks: journals close and the files go.
	var drains, releases []func() error
	runAll := func(fns *[]func() error) error {
		var first error
		for i := len(*fns) - 1; i >= 0; i-- {
			if ferr := (*fns)[i](); ferr != nil && first == nil {
				first = ferr
			}
		}
		*fns = nil
		return first
	}
	defer func() {
		if err != nil {
			// Best effort: the setup error is what matters.
			_ = runAll(&drains)
			_ = runAll(&releases)
		}
	}()
	dir, err := os.MkdirTemp(env.dir, "wire-")
	if err != nil {
		return nil, err
	}
	releases = append(releases, func() error { return os.RemoveAll(dir) })

	hubs := make([]*core.Hub, len(wireNodes))
	daemons := make([]*server.Daemon, len(wireNodes))
	members := make([]cluster.Peer, len(wireNodes))
	cfgs := make([]cluster.Config, len(wireNodes))
	for i, id := range wireNodes {
		// A forward attempt that timed out but ran on the owner would be
		// retried into a duplicate-order failure; the generous per-attempt
		// timeout keeps host stalls from turning into failed requests.
		cfgs[i] = cluster.Config{Node: id, JournalDir: dir, Forward: core.RetryPolicy{PerAttemptTimeout: 10 * time.Second}}
		for _, pid := range wireNodes {
			cfgs[i].Peers = append(cfgs[i].Peers, cluster.Peer{Node: pid})
		}
		m, err := core.PaperFigure14Model()
		if err != nil {
			return nil, err
		}
		opts := []core.HubOption{
			core.WithShards(8), core.WithWorkersPerShard(4),
			core.WithExchangeIDBase(cfgs[i].ExchangeIDBase()),
			core.WithJournal(cluster.JournalPath(dir, id)),
			core.WithFsyncPolicy(journal.FsyncBatched),
		}
		if env.tr != nil {
			opts = append(opts, core.WithBus(env.tr.bus(id)), core.WithJournalFS(&timedFS{FS: journal.OSFS(), tr: env.tr}))
		}
		h, err := core.NewHub(m, opts...)
		if err != nil {
			return nil, err
		}
		releases = append(releases, h.CloseJournal)
		if _, err := h.AddPartner(core.Figure15Partner()); err != nil {
			return nil, err
		}
		wrapTraced(h, env.tr)
		h.StartScheduler()
		d, err := server.NewDaemon(h, "127.0.0.1:0", server.WithName(id))
		if err != nil {
			return nil, err
		}
		hubs[i], daemons[i] = h, d
		members[i] = cluster.Peer{Node: id, Addr: d.Addr()}
	}
	nodes := make([]*cluster.Node, len(wireNodes))
	for i := range wireNodes {
		cfgs[i].Peers = members
		n, err := cluster.New(hubs[i], cfgs[i])
		if err != nil {
			return nil, err
		}
		n.Attach(daemons[i])
		d := daemons[i]
		served := make(chan error, 1)
		go func() { served <- d.Serve() }()
		n.Start()
		nodes[i] = n
		drains = append(drains, func() error {
			n.Stop()
			_, derr := d.DrainAndClose(30 * time.Second)
			if serr := <-served; serr != nil && derr == nil {
				derr = serr
			}
			return derr
		})
	}
	owned := map[string]int{}
	for _, p := range hubs[0].Model.Partners {
		owned[nodes[0].Owner(p.ID)]++
	}
	for _, id := range wireNodes {
		if owned[id] == 0 {
			return nil, fmt.Errorf("wire-durable: node %s owns no partner", id)
		}
	}

	ctx := context.Background()
	conns := make([]*server.Client, runtime.NumCPU())
	for i := range conns {
		c, err := server.Dial(ctx, daemons[0].Addr())
		if err != nil {
			return nil, err
		}
		conns[i] = c
		drains = append(drains, c.Close)
	}
	var next int
	return &rig{
		hubs: hubs,
		submit: func(r *request, done func(result)) {
			c := conns[next%len(conns)]
			next++
			go func() {
				var resp server.SubmitResponse
				err := c.Call(ctx, server.OpSubmit, r.body, &resp)
				done(result{err: err, wire: resp.Wire, exID: resp.ExchangeID})
			}()
		},
		local:    func(partner string) bool { return nodes[0].Owner(partner) == wireNodes[0] },
		shutdown: func() error { return runAll(&drains) },
		release:  func() error { return runAll(&releases) },
	}, nil
}
