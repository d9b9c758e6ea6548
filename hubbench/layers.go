package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/obs"
	"repro/internal/server"
)

// perLayer derives a traced repetition's per-layer metrics: counts and
// times the tracer saw during the open-loop phase, counter deltas over it,
// and replays of that phase's own documents through each layer's public
// functions. Layers a workload does not use report 0. The run adds the
// metrics it derives from all repetitions together (cpu_share.*,
// trace_overhead).
func perLayer(x *runner, rg *rig, openReqs []*request, openOuts []outcome) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	tr, acc := x.tr, &x.acc
	nEx := float64(successes(openOuts))
	if nEx == 0 {
		return nil, fmt.Errorf("no exchange of the open-loop phase succeeded")
	}
	// Bus-derived ratios are per exchange the bus saw end.
	nBus := math.Max(1, float64(len(tr.service)))

	// loadgen
	set("loadgen.lag_p99_ms", percentile(x.lags, 0.99), "ms")
	// Offered rate over the open loop, from first to last send.
	last := len(openOuts) - 1
	sendSpan := openOuts[last].due.Add(msDur(x.lags[last])).Sub(openOuts[0].due.Add(msDur(x.lags[0])))
	set("loadgen.offered_ex_s", float64(last)/sendSpan.Seconds(), "ex/s")

	// sched
	waits := queueWaits(tr, openReqs, openOuts)
	set("sched.queue_wait_p50_ms", percentile(waits, 0.50), "ms")
	set("sched.queue_wait_p99_ms", percentile(waits, 0.99), "ms")
	set("sched.service_p50_ms", percentile(msOf(tr.service), 0.50), "ms")
	set("sched.shard_skew", shardSkew(acc.shards), "ratio")
	set("sched.bypassed_per_kex", float64(acc.bypassed)/nEx*1000, "count")

	// wf
	set("wf.steps_per_ex", float64(tr.steps)/nBus, "count")
	var stepTotal time.Duration
	for _, st := range []obs.Stage{obs.StagePublic, obs.StageBinding, obs.StagePrivate, obs.StageApp} {
		set("wf.step_us_per_ex."+string(st), us(tr.stepTime[st])/nBus, "us")
		stepTotal += tr.stepTime[st]
	}
	var service time.Duration
	for _, d := range tr.service {
		service += d
	}
	set("wf.overhead_us_per_ex", (us(service)-us(stepTotal))/nBus, "us")

	// rules, transform, formats, server: replays of the phase's documents.
	docs, err := collectDocs(openReqs, openOuts)
	if err != nil {
		return nil, err
	}
	if err := replayRules(set, rg.hubs[0].Model, docs); err != nil {
		return nil, err
	}
	if err := replayTransforms(set, docs); err != nil {
		return nil, err
	}
	if err := replayFormats(set, docs); err != nil {
		return nil, err
	}
	if err := replayFrames(set, docs, rg); err != nil {
		return nil, err
	}
	// server and cluster: latency split by whether the receiving node owns
	// the partner (in process every partner is local).
	var localLat, fwdLat, localService []float64
	seen := map[string]bool{}
	for i, r := range openReqs {
		o := openOuts[i]
		if o.res.err != nil {
			continue
		}
		lat := float64(o.end.Sub(o.due)) / float64(time.Millisecond)
		if !rg.local(r.partner) {
			fwdLat = append(fwdLat, lat)
			continue
		}
		localLat = append(localLat, lat)
		if !seen[r.partner] {
			seen[r.partner] = true
			localService = append(localService, msOf(tr.serviceByPartner[r.partner])...)
		}
	}
	rttMinusService, forwardExtra := 0.0, 0.0
	if docs.wire && len(localLat) > 0 && len(localService) > 0 {
		rttMinusService = percentile(localLat, 0.5) - percentile(localService, 0.5)
	}
	if len(fwdLat) > 0 && len(localLat) > 0 {
		forwardExtra = percentile(fwdLat, 0.5) - percentile(localLat, 0.5)
	}
	set("server.rtt_minus_service_ms", rttMinusService, "ms")
	set("cluster.forwarded_share", float64(acc.forwarded)/float64(len(openReqs)), "ratio")
	set("cluster.forward_extra_ms", forwardExtra, "ms")

	// backend
	set("backend.calls_per_ex", float64(tr.backendCalls)/nBus, "count")
	set("backend.busy_us_per_ex", us(tr.backendBusy)/nBus, "us")
	set("backend.invoice_extract_us_p50", percentile(usOf(tr.invExtract), 0.5), "us")

	// journal
	set("journal.appends_per_ex", float64(acc.appends)/nEx, "count")
	set("journal.fsyncs_per_ex", float64(acc.syncs)/nEx, "count")
	set("journal.bytes_per_ex", float64(tr.journalBytes)/nEx, "B")
	set("journal.write_us_p50", percentile(usOf(tr.journalWrites), 0.5), "us")
	set("journal.fsync_us_p50", percentile(usOf(tr.journalSyncs), 0.5), "us")
	set("journal.fsync_us_p99", percentile(usOf(tr.journalSyncs), 0.99), "us")

	// obs
	set("obs.events_per_ex", float64(tr.events)/nBus, "count")
	if err := replayBus(set, tr.captured); err != nil {
		return nil, err
	}

	// runtime
	set("runtime.gc_cycles_per_kex", float64(acc.numGC)/nEx*1000, "count")
	gcShare := 0.0
	if acc.busyCPU > 0 {
		gcShare = acc.gcCPU / acc.busyCPU
	}
	set("runtime.gc_cpu_share", gcShare, "ratio")
	set("runtime.gc_pause_p99_ms", acc.pauseP99()*1000, "ms")
	set("runtime.heap_live_mb_end", float64(x.heapLiveEnd)/1e6, "MB")

	if err := tr.writeSpans(filepath.Join(resultDir(x.cfg), fmt.Sprintf("spans-rep%d.jsonl", x.cfg.Rep))); err != nil {
		return nil, err
	}
	return m, nil
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// queueWaits is the scheduler queue wait of each open-loop exchange, in
// ms. In process it runs from DoAsync's return to the exchange's started
// event. Behind the daemon, where DoAsync is not visible and the sched
// events carry no exchange ID, it is approximate: each shard's queue is
// FIFO, so its k-th enqueue in time order is paired with its k-th
// dispatch. The daemon's request goroutines submit concurrently and emit
// the enqueued event after the send, so a worker can dispatch a job before
// its enqueued event is stamped; such a pairing counts as a zero wait.
func queueWaits(tr *tracer, reqs []*request, outs []outcome) []float64 {
	var waits []float64
	if len(tr.submittedAt) > 0 {
		for i, r := range reqs {
			at, ok := tr.submittedAt[r.idx]
			startedAt, ok2 := tr.started[exKey("", outs[i].res.exID)]
			if ok && ok2 {
				waits = append(waits, math.Max(0, float64(startedAt.Sub(at))/float64(time.Millisecond)))
			}
		}
		return waits
	}
	for key, enq := range tr.enqueued {
		disp := tr.dispatched[key]
		sortTimes(enq)
		sortTimes(disp)
		for i := 0; i < len(enq) && i < len(disp); i++ {
			waits = append(waits, math.Max(0, float64(disp[i].Sub(enq[i]))/float64(time.Millisecond)))
		}
	}
	return waits
}

func sortTimes(ts []time.Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
}

// shardSkew is max/mean of the jobs each shard completed over the open
// loop, over the shards the hubs report.
func shardSkew(completed map[string]int64) float64 {
	var total, max float64
	for _, v := range completed {
		d := float64(v)
		total += d
		max = math.Max(max, d)
	}
	if total == 0 {
		return 0
	}
	return max / (total / float64(len(completed)))
}

// phaseDocs are the open-loop phase's documents, decoded once before any
// replay is timed.
type phaseDocs struct {
	wire bool
	pos  []poDoc
	invs []invDoc
}

type poDoc struct {
	r         *request
	native    any                   // the PO in its partner's protocol
	poa       *doc.PurchaseOrderAck // normalized acknowledgment
	poaNative any                   // the POA as its partner's codec decodes it
	resp      server.SubmitResponse
}

type invDoc struct {
	r   *request
	inv *doc.Invoice
}

func collectDocs(reqs []*request, outs []outcome) (phaseDocs, error) {
	dec := newDecoder()
	var d phaseDocs
	for i, r := range reqs {
		res := outs[i].res
		if res.err != nil {
			continue
		}
		switch r.kind {
		case core.DocPO, core.DocWirePO:
			p := poDoc{r: r, poa: res.poa}
			native, err := dec.reg.FromNormalized(r.protocol, doc.TypePO, r.po)
			if err != nil {
				return d, err
			}
			p.native = native
			if r.kind == core.DocWirePO {
				d.wire = true
				if p.poaNative, err = dec.native(r.protocol, doc.TypePOA, res.wire); err != nil {
					return d, err
				}
				n, err := dec.reg.ToNormalized(r.protocol, doc.TypePOA, p.poaNative)
				if err != nil {
					return d, err
				}
				p.poa, _ = n.(*doc.PurchaseOrderAck)
				p.resp = server.SubmitResponse{ExchangeID: res.exID, Partner: r.partner, Wire: res.wire}
			}
			d.pos = append(d.pos, p)
		case core.DocInvoice:
			n, err := dec.normalized(r.protocol, doc.TypeINV, res.wire)
			if err != nil {
				return d, err
			}
			inv, _ := n.(*doc.Invoice)
			d.invs = append(d.invs, invDoc{r: r, inv: inv})
		}
	}
	return d, nil
}

const (
	// A replay repeats its documents until it has run at least
	// replayMinDur and one full pass.
	replayMinDur = 50 * time.Millisecond
	// replayCheckEvery is how many calls run between clock reads.
	replayCheckEvery = 64
)

// replay times op over n items and returns ns and allocations per call.
func replay(n int, op func(i int) error) (nsPerOp, allocsPerOp float64, err error) {
	if n == 0 {
		return 0, 0, nil
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ops := 0
	for ops < n || ops%replayCheckEvery != 0 || time.Since(start) < replayMinDur {
		if err := op(ops % n); err != nil {
			return 0, 0, err
		}
		ops++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops), nil
}

func replayRules(set func(string, float64, string), m *core.Model, d phaseDocs) error {
	type triple struct {
		set, source, target string
		document            any
	}
	var ts []triple
	for _, p := range d.pos {
		ts = append(ts, triple{core.ApprovalRuleSet, p.r.partner, p.r.backend, p.r.po})
	}
	for _, iv := range d.invs {
		ts = append(ts, triple{core.InvoiceReviewRuleSet, iv.r.partner, iv.r.backend, iv.inv})
	}
	ns, allocs, err := replay(len(ts), func(i int) error {
		_, err := m.Rules.Evaluate(ts[i].set, ts[i].source, ts[i].target, ts[i].document)
		return err
	})
	if err != nil {
		return fmt.Errorf("rules replay: %w", err)
	}
	set("rules.eval_ns", ns, "ns")
	set("rules.eval_allocs", allocs, "count")
	return nil
}

func replayTransforms(set func(string, float64, string), d phaseDocs) error {
	reg := newDecoder().reg
	ns, allocs, err := replay(len(d.pos), func(i int) error {
		_, err := reg.ToNormalized(d.pos[i].r.protocol, doc.TypePO, d.pos[i].native)
		return err
	})
	if err != nil {
		return fmt.Errorf("transform po_in replay: %w", err)
	}
	set("transform.po_in_ns", ns, "ns")
	set("transform.po_in_allocs", allocs, "count")
	ns, allocs, err = replay(len(d.pos), func(i int) error {
		_, err := reg.FromNormalized(d.pos[i].r.protocol, doc.TypePOA, d.pos[i].poa)
		return err
	})
	if err != nil {
		return fmt.Errorf("transform poa_out replay: %w", err)
	}
	set("transform.poa_out_ns", ns, "ns")
	set("transform.poa_out_allocs", allocs, "count")
	ns, allocs, err = replay(len(d.invs), func(i int) error {
		_, err := reg.FromNormalized(d.invs[i].r.protocol, doc.TypeINV, d.invs[i].inv)
		return err
	})
	if err != nil {
		return fmt.Errorf("transform inv_out replay: %w", err)
	}
	set("transform.inv_out_ns", ns, "ns")
	set("transform.inv_out_allocs", allocs, "count")
	return nil
}

// replayFormats replays the partner codecs on the phase's wire documents
// (wire-durable only).
func replayFormats(set func(string, float64, string), d phaseDocs) error {
	var wirePOs []poDoc
	var wireBytes int
	if d.wire {
		wirePOs = d.pos
	}
	for _, p := range wirePOs {
		wireBytes += len(p.r.wire) + len(p.resp.Wire)
	}
	codecs := core.NewCodecRegistry()
	ns, allocs, err := replay(len(wirePOs), func(i int) error {
		c, err := codecs.Lookup(wirePOs[i].r.protocol, doc.TypePO)
		if err != nil {
			return err
		}
		_, err = c.Decode(wirePOs[i].r.wire)
		return err
	})
	if err != nil {
		return fmt.Errorf("formats decode replay: %w", err)
	}
	set("formats.decode_po_ns", ns, "ns")
	set("formats.decode_po_allocs", allocs, "count")
	ns, allocs, err = replay(len(wirePOs), func(i int) error {
		c, err := codecs.Lookup(wirePOs[i].r.protocol, doc.TypePOA)
		if err != nil {
			return err
		}
		_, err = c.Encode(wirePOs[i].poaNative)
		return err
	})
	if err != nil {
		return fmt.Errorf("formats encode replay: %w", err)
	}
	set("formats.encode_poa_ns", ns, "ns")
	set("formats.encode_poa_allocs", allocs, "count")
	set("formats.wire_bytes_per_ex", float64(wireBytes)/math.Max(1, float64(len(wirePOs))), "B")
	return nil
}

// replayFrames replays WriteFrame/ReadFrame on the phase's submit and
// response bodies, plus the forward hop's frames for partners the
// receiving node does not own (wire-durable only).
func replayFrames(set func(string, float64, string), d phaseDocs, rg *rig) error {
	var frames []*server.Frame
	exchanges := 0
	if d.wire {
		for i, p := range d.pos {
			resp, err := json.Marshal(p.resp)
			if err != nil {
				return err
			}
			id := uint64(i + 1)
			frames = append(frames,
				&server.Frame{V: server.ProtocolVersion, ID: id, Op: server.OpSubmit, Body: p.r.body},
				&server.Frame{V: server.ProtocolVersion, ID: id, Op: server.OpSubmit, Body: resp})
			if !rg.local(p.r.partner) {
				var sr server.SubmitRequest
				if err := json.Unmarshal(p.r.body, &sr); err != nil {
					return err
				}
				fwd, err := json.Marshal(server.ForwardRequest{From: wireNodes[0], Hops: 1, Submit: sr})
				if err != nil {
					return err
				}
				frames = append(frames,
					&server.Frame{V: server.ProtocolVersion, ID: id, Op: server.OpForward, Body: fwd},
					&server.Frame{V: server.ProtocolVersion, ID: id, Op: server.OpForward, Body: resp})
			}
			exchanges++
		}
	}
	encoded := make([][]byte, len(frames))
	total := 0
	for i, f := range frames {
		var b bytes.Buffer
		if err := server.WriteFrame(&b, f); err != nil {
			return err
		}
		encoded[i] = b.Bytes()
		total += b.Len()
	}
	var buf bytes.Buffer
	encNS, _, err := replay(len(frames), func(i int) error {
		buf.Reset()
		return server.WriteFrame(&buf, frames[i])
	})
	if err != nil {
		return fmt.Errorf("frame encode replay: %w", err)
	}
	decNS, _, err := replay(len(encoded), func(i int) error {
		_, err := server.ReadFrame(bytes.NewReader(encoded[i]), server.MaxFrame)
		return err
	})
	if err != nil {
		return fmt.Errorf("frame decode replay: %w", err)
	}
	set("server.frame_bytes_per_ex", float64(total)/math.Max(1, float64(exchanges)), "B")
	set("server.frame_encode_ns", encNS, "ns")
	set("server.frame_decode_ns", decNS, "ns")
	return nil
}

// replayBus replays captured events through a fresh bus carrying the hub's
// default sink set.
func replayBus(set func(string, float64, string), captured []obs.Event) error {
	b := obs.NewBus()
	for _, s := range []obs.Sink{
		obs.NewMetrics(), obs.NewCollector(0), obs.NewExchangeCounters(), obs.NewSchedMetrics(),
		obs.NewPlanMetrics(), obs.NewHealthMetrics(), obs.NewRecoveryMetrics(), obs.NewConfigMetrics(),
	} {
		b.Attach(s)
	}
	events := make([]obs.Event, len(captured))
	for i, e := range captured {
		e.Seq, e.Time = 0, time.Time{} // Emit stamps both, as it does live
		events[i] = e
	}
	ns, allocs, err := replay(len(events), func(i int) error {
		b.Emit(events[i])
		return nil
	})
	if err != nil {
		return err
	}
	set("obs.emit_ns", ns, "ns")
	set("obs.emit_allocs", allocs, "count")
	return nil
}
