// Command b2bhub runs the advanced integration hub end to end over the
// simulated network: it deploys the Figure 14 model (plus the Figure 15
// partner with -tp3), spins up one client per partner, pushes purchase
// orders through the full stack and reports throughput, latency and
// reliable-messaging statistics.
//
// With -workers N > 1 the hub serves exchanges concurrently through its
// bounded worker pool, and the partners drive their order streams in
// parallel. With -trace the first exchange's structured event stream is
// printed: routing hops and step executions, in order, with per-step
// timings, followed by the per-stage latency summary.
//
// With -berr or -bhang the tool switches to chaos mode: backends are
// wrapped in seeded fault injectors and the orders are driven through the
// hub's submission pool, exercising the retry/backoff/dead-letter
// reliability layer; -trace then prints the event streams of the first
// retried and first dead-lettered exchanges.
//
// With -breaker-threshold > 0 the per-partner circuit breaker guards
// admission: sustained backend failures open a partner's circuit, further
// orders for it fast-fail to the dead-letter queue, and half-open probes
// close it again once the backend heals; -trace then also prints the
// per-partner health gauges (state, opens, probes, sheds, fast-fails).
//
// With -journal PATH the hub write-ahead-journals every admitted exchange
// to PATH (fsync policy selected by -fsync: always, batched or never) and
// recovers from the journal at startup: completed exchanges are restored
// as records, dead letters return to the queue, and admissions that never
// reached a terminal outcome are re-run with at-most-once redelivery. The
// recovery report is printed before any new orders are driven.
//
// With -serve ADDR the tool becomes a long-lived daemon instead of a
// self-driving benchmark: it listens on ADDR and serves the versioned wire
// protocol (submit, status, trace, dlq, resubmit, drain) until SIGTERM or
// SIGINT, which triggers a graceful drain (bounded by -drain-timeout) and a
// journal checkpoint before exit. Use cmd/b2bctl to talk to it.
//
// With -swap the EDI binding is hot-swapped mid-run — while orders are in
// flight — and then rolled back to the prior version, without draining;
// with -canary F a rebuilt EDI binding candidate takes fraction F of TP1's
// traffic until the sample window fills and the canary auto-promotes (or
// auto-rolls-back on regression). Either flag prints the change-management
// gauges (swaps, activations, canary verdicts, config epoch) at the end.
//
// Usage:
//
//	b2bhub [-n 100] [-workers 4] [-loss 0.1] [-dup 0.05] [-tp3] [-trace]
//	b2bhub [-berr 0.3] [-bhang 0.1] [-battempts 8] [-bseed 7] [-trace]
//	b2bhub [-berr 1] [-breaker-threshold 0.5] [-breaker-window 5s] [-probe-interval 500ms]
//	b2bhub [-journal hub.wal] [-fsync batched]
//	b2bhub [-workers 4] [-swap] [-canary 0.25]
//	b2bhub -serve 127.0.0.1:7340 [-journal hub.wal] [-shards 4] [-drain-timeout 30s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/cfgstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/server"
)

var (
	n       = flag.Int("n", 100, "purchase orders per partner")
	workers = flag.Int("workers", 1, "hub workers (per shard when -shards > 1); >1 serves exchanges concurrently")
	shards  = flag.Int("shards", 0, "scheduler shards; >0 runs the sharded per-partner scheduler")
	stepPar = flag.Int("step-parallelism", 1, "independent ready steps one workflow instance may run concurrently")
	loss    = flag.Float64("loss", 0, "message loss probability (in-process network only)")
	dup     = flag.Float64("dup", 0, "message duplication probability (in-process network only)")
	tp3     = flag.Bool("tp3", false, "add the Figure 15 partner (OAGIS)")
	trace   = flag.Bool("trace", false, "print the event stream of the first exchange")
	tcp     = flag.Bool("tcp", false, "use real TCP loopback sockets instead of the in-process network")
	fa997   = flag.Bool("fa997", false, "enable EDI 997 functional acknowledgments")
	invoice = flag.Bool("invoice", false, "push a one-way invoice after each round trip")

	// Backend fault injection (chaos mode): orders are driven through the
	// hub's submission pool directly, exercising the retry/dead-letter
	// reliability layer instead of the network clients.
	berr      = flag.Float64("berr", 0, "backend error probability (enables chaos mode)")
	bhang     = flag.Float64("bhang", 0, "backend hang probability (enables chaos mode)")
	battempts = flag.Int("battempts", 8, "retry attempts per binding step in chaos mode")
	bseed     = flag.Int64("bseed", 1, "backend fault stream seed")

	// Partner health: a threshold > 0 enables the per-partner circuit
	// breaker on the admission path.
	breakerWindow    = flag.Duration("breaker-window", 5*time.Second, "sliding window over which partner failure rates are measured")
	breakerThreshold = flag.Float64("breaker-threshold", 0, "failure rate that opens a partner's circuit; 0 disables the breaker")
	probeInterval    = flag.Duration("probe-interval", 500*time.Millisecond, "wait before an open circuit admits a half-open probe")

	// Durability: a non-empty path write-ahead-journals the exchange
	// lifecycle and recovers unfinished work at startup.
	journalPath = flag.String("journal", "", "write-ahead journal path; enables crash recovery (empty disables)")
	fsyncMode   = flag.String("fsync", "batched", "journal fsync policy: always, batched or never")
	jrnPolicy   = flag.String("journal-policy", "fail-stop", "journal failure policy: fail-stop rejects admissions when the disk fails, degraded keeps serving non-durably and re-arms when it heals")

	// Runtime change management: hot-swap and canary demos applied mid-run,
	// while orders are in flight.
	swap       = flag.Bool("swap", false, "hot-swap the EDI binding mid-run, then roll it back")
	canaryFrac = flag.Float64("canary", 0, "canary a rebuilt EDI binding on this fraction of TP1 traffic; 0 disables")

	// Daemon mode: serve the wire protocol instead of driving a benchmark.
	serveAddr    = flag.String("serve", "", "listen address (host:port); runs as a long-lived daemon serving the wire protocol")
	drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline in daemon mode")

	// Cluster mode (daemon only): a non-empty -peers list federates this
	// daemon with its peers — partner-affinity routing, heartbeat failure
	// detection, journal-backed takeover of dead peers' partners.
	nodeID     = flag.String("node", "", "this node's cluster ID (cluster mode; must appear in -peers)")
	peersList  = flag.String("peers", "", `cluster member list "id=host:port,id=host:port" including self; enables cluster mode`)
	clusterDir = flag.String("cluster-dir", "", "shared directory of per-node journals (<dir>/<id>.wal); enables takeover replay")
	heartbeat  = flag.Duration("heartbeat", 250*time.Millisecond, "cluster peer probe period")
	deadAfter  = flag.Int("dead-after", 3, "missed heartbeats before a peer is declared dead")
	fwdLoss    = flag.Float64("fwd-loss", 0, "seeded loss probability injected on the cluster forward path")
	fwdSeed    = flag.Int64("fwd-seed", 1, "forward-path fault stream seed")
)

// clusterConfig builds the cluster.Config from the -node/-peers flags, or
// nil when -peers is unset (standalone daemon).
func clusterConfig() *cluster.Config {
	if *peersList == "" {
		return nil
	}
	if *serveAddr == "" {
		log.Fatal("cluster mode (-peers) requires -serve")
	}
	cfg := cluster.Config{
		Node:       *nodeID,
		JournalDir: *clusterDir,
		Heartbeat:  *heartbeat,
		DeadAfter:  *deadAfter,
		Faults:     msg.Faults{LossProb: *fwdLoss, Seed: *fwdSeed},
	}
	for _, m := range strings.Split(*peersList, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(m), "=")
		if !ok {
			log.Fatalf("bad -peers member %q (want id=host:port)", m)
		}
		cfg.Peers = append(cfg.Peers, cluster.Peer{Node: id, Addr: addr})
	}
	return &cfg
}

// network abstracts the two transports the tool can run over.
type network interface {
	Endpoint(addr string) (msg.Endpoint, error)
	Close() error
}

func main() {
	flag.Parse()

	model, err := core.PaperFigure14Model()
	if err != nil {
		log.Fatal(err)
	}
	hubOpts := []core.HubOption{core.WithWorkersPerShard(*workers)}
	if *shards > 0 {
		hubOpts = append(hubOpts, core.WithShards(*shards))
	}
	if *stepPar > 1 {
		hubOpts = append(hubOpts, core.WithStepParallelism(*stepPar))
	}
	if *breakerThreshold > 0 {
		hubOpts = append(hubOpts, core.WithHealth(health.Config{
			Window:        *breakerWindow,
			Threshold:     *breakerThreshold,
			ProbeInterval: *probeInterval,
		}))
	}
	ccfg := clusterConfig()
	if ccfg != nil {
		if *journalPath == "" && ccfg.JournalDir != "" {
			*journalPath = cluster.JournalPath(ccfg.JournalDir, ccfg.Node)
		}
		// Disjoint per-node exchange ID ranges, so takeover can restore a
		// dead peer's exchanges under their original IDs.
		hubOpts = append(hubOpts, core.WithExchangeIDBase(ccfg.ExchangeIDBase()))
	}
	if *journalPath != "" {
		policy, err := journal.ParsePolicy(*fsyncMode)
		if err != nil {
			log.Fatal(err)
		}
		fpolicy, err := core.ParseFailurePolicy(*jrnPolicy)
		if err != nil {
			log.Fatal(err)
		}
		hubOpts = append(hubOpts, core.WithJournal(*journalPath), core.WithFsyncPolicy(policy),
			core.WithJournalFailurePolicy(fpolicy))
	}
	hub, err := core.NewHub(model, hubOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer hub.CloseJournal()
	if *tp3 {
		if _, err := hub.AddPartner(core.Figure15Partner()); err != nil {
			log.Fatal(err)
		}
	}
	if *journalPath != "" {
		rctx, rcancel := context.WithTimeout(context.Background(), time.Minute)
		rep, err := hub.Recover(rctx)
		rcancel()
		if err != nil {
			log.Fatalf("recover from %s: %v", *journalPath, err)
		}
		fmt.Printf("journal %s (fsync=%s): %d records replayed (%d torn bytes dropped); "+
			"restored %d completed + %d dead letters; re-ran %d unfinished "+
			"(%d recovered, %d redelivered to DLQ), %d duplicate admits skipped\n",
			*journalPath, *fsyncMode, rep.Records, rep.TornBytes,
			rep.Restored, rep.DeadLetters, rep.Reenqueued,
			rep.Recovered, rep.Redelivered, rep.DuplicateAdmits)
		if rep.Corrupt > 0 || rep.Poisoned > 0 {
			fmt.Printf("journal repair: %d corrupt regions (%d bytes) quarantined; %d poison admissions parked to DLQ\n",
				rep.Corrupt, rep.QuarantinedBytes, rep.Poisoned)
		}
	}

	if *fa997 {
		if _, err := hub.EnableFunctionalAcks(formats.EDI); err != nil {
			log.Fatal(err)
		}
	}
	if *invoice {
		if _, err := hub.EnableInvoicing(); err != nil {
			log.Fatal(err)
		}
	}

	if *serveAddr != "" {
		runDaemon(hub, ccfg)
		return
	}

	if *berr > 0 || *bhang > 0 {
		runChaos(hub)
		return
	}

	var network network
	if *tcp {
		if *loss > 0 || *dup > 0 {
			log.Fatal("fault injection requires the in-process network (drop -tcp)")
		}
		network = msg.NewTCPNetwork()
	} else {
		network = msg.NewInProcNetwork(msg.Faults{LossProb: *loss, DupProb: *dup, Seed: 1})
	}
	defer network.Close()
	rcfg := msg.ReliableConfig{RetryInterval: 15 * time.Millisecond, MaxAttempts: 100}
	hubEP, err := network.Endpoint("hub")
	if err != nil {
		log.Fatal(err)
	}
	server := core.NewServer(hub, hubEP, core.WithReliableConfig(rcfg))
	defer server.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if *workers > 1 || *shards > 0 {
		go server.ServeConcurrent(ctx, nil)
	} else {
		go server.Serve(ctx, nil)
	}
	cfgDone := startConfigOps(hub)

	sellerParty := doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"}
	start := time.Now()
	var (
		mu        sync.Mutex
		total     int
		traced    bool
		summaries = make([]string, len(hub.Model.Partners))
	)
	var wg sync.WaitGroup
	for pi, p := range hub.Model.Partners {
		ep, err := network.Endpoint(p.ID)
		if err != nil {
			log.Fatal(err)
		}
		client := core.NewClient(p, ep, rcfg, "hub")
		drive := func(pi int, p core.TradingPartner, client *core.Client) {
			defer client.Close()
			g := doc.NewGenerator(int64(len(p.ID)))
			buyerParty := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
			var firstLatency time.Duration
			for i := 0; i < *n; i++ {
				po := g.PO(buyerParty, sellerParty)
				t0 := time.Now()
				poa, err := client.RoundTrip(ctx, po)
				if err != nil {
					log.Fatalf("%s order %d: %v", p.ID, i, err)
				}
				if i == 0 {
					firstLatency = time.Since(t0)
					if *trace {
						mu.Lock()
						if !traced {
							traced = true
							printTrace(hub, "ex-000001")
						}
						mu.Unlock()
					}
				}
				if poa.POID != po.ID {
					log.Fatalf("%s order %d: wrong correlation", p.ID, i)
				}
				if *invoice {
					if _, err := hub.Do(ctx, core.Request{Kind: core.DocInvoice, PartnerID: p.ID, POID: po.ID}); err != nil {
						log.Fatalf("%s invoice for %s: %v", p.ID, po.ID, err)
					}
				}
				mu.Lock()
				total++
				mu.Unlock()
			}
			st := client.Stats()
			summaries[pi] = fmt.Sprintf("%-4s %-12s: %4d round trips (first latency %v, retries %d)",
				p.ID, p.Protocol, *n, firstLatency.Round(time.Microsecond), st.Retries)
		}
		if *workers > 1 {
			wg.Add(1)
			go func(pi int, p core.TradingPartner, client *core.Client) {
				defer wg.Done()
				drive(pi, p, client)
			}(pi, p, client)
		} else {
			drive(pi, p, client)
		}
	}
	wg.Wait()
	<-cfgDone
	for _, line := range summaries {
		fmt.Println(line)
	}
	elapsed := time.Since(start)
	fmt.Printf("\n%d round trips in %v (%.0f/s) with %d worker(s) over loss=%.0f%% dup=%.0f%%\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), *workers, *loss*100, *dup*100)
	ss := server.Stats()
	fmt.Printf("hub reliable layer: delivered=%d duplicates-suppressed=%d acks-sent=%d\n",
		ss.Delivered, ss.Duplicates, ss.AcksSent)
	for name, sys := range hub.Systems {
		fmt.Printf("backend %-7s stored %d orders\n", name, sys.StoredOrders())
	}
	hst := hub.Status()
	fmt.Printf("hub: %d exchanges, %d invoices, %d failed\n",
		hst.Exchanges.ByFlow[obs.FlowPO], hst.Exchanges.ByFlow[obs.FlowInvoice], hst.Exchanges.Failed)
	printConfigMetrics(hub)
	printStageMetrics(hub)
	if *trace {
		printShardMetrics(hub)
		printHealthMetrics(hub)
		printPlanMetrics(hub)
	}
	hub.StopWorkers()
}

// runDaemon serves the hub over the wire protocol until SIGTERM or SIGINT,
// then drains gracefully: admission stops, in-flight exchanges finish under
// -drain-timeout, the journal is checkpointed, and the listener closes. The
// listen line is printed first and is stable ("b2bhub daemon listening on
// ADDR") so scripts and tests can scrape the bound address.
func runDaemon(hub *core.Hub, ccfg *cluster.Config) {
	hub.StartScheduler()
	defer hub.StopWorkers()
	var node *cluster.Node
	if ccfg != nil {
		var err error
		if node, err = cluster.New(hub, *ccfg); err != nil {
			log.Fatal(err)
		}
	}
	d, err := server.NewDaemon(hub, *serveAddr, server.WithDrainTimeout(*drainTimeout))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("b2bhub daemon listening on %s\n", d.Addr())
	fmt.Printf("serving %d partners (journal=%v); SIGTERM drains within %v\n",
		len(hub.Model.Partners), hub.Journal() != nil, *drainTimeout)
	if node != nil {
		node.Attach(d)
		node.Start()
		fmt.Printf("cluster node %s: %d members, heartbeat %v, journal dir %q\n",
			ccfg.Node, len(ccfg.Peers), *heartbeat, ccfg.JournalDir)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := <-sigc
		fmt.Printf("b2bhub: caught %v, draining (deadline %v)\n", sig, *drainTimeout)
		if node != nil {
			node.Stop()
		}
		sum, err := d.DrainAndClose(*drainTimeout)
		if err != nil {
			fmt.Printf("b2bhub: drain: %v\n", err)
		}
		fmt.Printf("drained: %d completed, %d failed, %d shed, %d dead letters flushed\n",
			sum.Completed, sum.Failed, sum.Shed, sum.DeadLettered)
	}()
	if err := d.Serve(); err != nil {
		log.Fatal(err)
	}
	<-drained
	st := hub.Status()
	fmt.Printf("final: %d exchanges started, %d failed, %d retries, %d dead-lettered\n",
		st.Exchanges.Started, st.Exchanges.Failed, st.Exchanges.Retries, st.Exchanges.DeadLettered)
}

// liveCanary retains the -canary deployment so its verdict and per-arm
// sample counts can be reported after the run; it is written before the
// startConfigOps channel closes and read only after.
var liveCanary *cfgstore.Canary

// startConfigOps applies the -swap and -canary runtime changes from a
// goroutine a beat after the order streams start, so the changes land while
// exchanges are in flight — the point of non-draining hot-swap. The
// returned channel closes when the changes have been applied.
func startConfigOps(hub *core.Hub) chan struct{} {
	done := make(chan struct{})
	if !*swap && *canaryFrac <= 0 {
		close(done)
		return done
	}
	go func() {
		defer close(done)
		name := core.BindingName(formats.EDI)
		if *canaryFrac > 0 {
			cand, err := core.BuildBinding(formats.EDI)
			if err != nil {
				log.Fatalf("build canary candidate: %v", err)
			}
			c, err := hub.Canary("TP1", cand, *canaryFrac)
			if err != nil {
				log.Fatalf("canary %s: %v", name, err)
			}
			liveCanary = c
			fmt.Printf("canary: %s candidate v%d staged on %.0f%% of TP1 traffic (incumbent v%d)\n",
				name, c.Candidate, c.Fraction*100, c.Incumbent)
		}
		time.Sleep(10 * time.Millisecond)
		if *swap {
			prev, _ := hub.ConfigStore().Active(cfgstore.ClassBinding, name)
			nt, err := hub.SwapBinding(formats.EDI, nil)
			if err != nil {
				log.Fatalf("hot-swap %s: %v", name, err)
			}
			fmt.Printf("hot-swap: %s v%d -> v%d live at epoch %d, no drain; in-flight exchanges finish on v%d\n",
				name, prev, nt.Version, hub.ConfigStore().Epoch(), prev)
			time.Sleep(10 * time.Millisecond)
			if _, err := hub.Rollback(cfgstore.ClassBinding, name, prev); err != nil {
				log.Fatalf("rollback %s to v%d: %v", name, prev, err)
			}
			fmt.Printf("rollback: %s active pointer back to v%d at epoch %d (v%d stays registered)\n",
				name, prev, hub.ConfigStore().Epoch(), nt.Version)
		}
	}()
	return done
}

// printConfigMetrics renders the change-management gauges and, with
// -canary, the canary's verdict and per-arm sample counts. Prints nothing
// unless the run applied config changes (the swap gauge alone also counts
// the seed deploys, so it is not a useful signal on an unchanged run).
func printConfigMetrics(hub *core.Hub) {
	if !*swap && *canaryFrac <= 0 {
		return
	}
	cs := hub.Status().Config
	fmt.Printf("config changes: %d swaps, %d activations, %d canaries (%d promoted, %d rolled back); "+
		"epoch %d, %d live versions of %d artifacts\n",
		cs.Swaps, cs.Activations, cs.Canaries, cs.Promoted, cs.RolledBack,
		hub.ConfigStore().Epoch(), hub.ConfigStore().LiveVersions(), hub.ConfigStore().Artifacts())
	if liveCanary != nil {
		iOK, iFail, cOK, cFail := liveCanary.Samples()
		fmt.Printf("canary verdict: %s (incumbent %d ok / %d fail, candidate %d ok / %d fail)\n",
			liveCanary.Verdict(), iOK, iFail, cOK, cFail)
	}
}

// runChaos drives the order streams through the hub's submission pool
// against fault-injected backends: transient failures are retried under
// the per-binding policy, exhausted exchanges dead-letter, and the faults
// are healed at the end to resubmit the queue. With -trace the event
// streams of the first retried and the first dead-lettered exchange are
// printed, retry/backoff/dead-letter events included.
func runChaos(hub *core.Hub) {
	faulties := map[string]*backend.Faulty{}
	hub.WrapBackends(func(sys backend.System) backend.System {
		f := backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: *berr, HangProb: *bhang, Seed: *bseed})
		faulties[f.Name()] = f
		return f
	})
	hub.SetDefaultRetryPolicy(core.RetryPolicy{
		MaxAttempts: *battempts,
		BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond,
		PerAttemptTimeout: 50 * time.Millisecond,
	})
	hub.StartScheduler()
	defer hub.StopWorkers()
	cfgDone := startConfigOps(hub)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	sellerParty := doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"}
	start := time.Now()
	var futs []*core.Future
	for _, p := range hub.Model.Partners {
		g := doc.NewGenerator(int64(len(p.ID)))
		buyerParty := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
		for i := 0; i < *n; i++ {
			fut, err := hub.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: g.PO(buyerParty, sellerParty)})
			if err != nil {
				log.Fatalf("%s order %d: %v", p.ID, i, err)
			}
			futs = append(futs, fut)
		}
	}
	completed, failed := 0, 0
	for _, fut := range futs {
		if res := fut.Result(ctx); res.Err != nil {
			failed++
		} else {
			completed++
		}
	}
	<-cfgDone
	elapsed := time.Since(start)

	c := hub.Status().Exchanges
	fmt.Printf("%d submitted in %v (%.0f/s) with %d worker(s) over backend err=%.0f%% hang=%.0f%%\n",
		len(futs), elapsed.Round(time.Millisecond), float64(len(futs))/elapsed.Seconds(), *workers, *berr*100, *bhang*100)
	fmt.Printf("accounting: %d completed + %d dead-lettered = %d; %d retried attempts\n",
		completed, failed, completed+failed, c.Retries)
	for name, f := range faulties {
		fmt.Printf("backend %-7s injected %d errors, %d hangs; stored %d orders\n",
			name, f.InjectedErrors(), f.Hangs(), f.Inner().StoredOrders())
	}
	if *trace {
		if id := findExchange(hub, futs, obs.KindRetry, ""); id != "" {
			fmt.Println("\nfirst retried exchange:")
			printTrace(hub, id)
		}
		if id := findExchange(hub, futs, obs.KindExchange, obs.StepDeadLetter); id != "" {
			fmt.Println("\nfirst dead-lettered exchange:")
			printTrace(hub, id)
		}
	}

	// Heal the backends and resubmit the dead-letter queue. With the
	// breaker enabled a resubmission against a still-open circuit
	// fast-fails back onto the queue, so keep draining until the half-open
	// probes close the circuits and the replays go through (bounded, in
	// case an entry is genuinely poisoned).
	if dls := hub.DrainDeadLetters(); len(dls) > 0 {
		for _, f := range faulties {
			f.SetSchedule(backend.FaultSchedule{})
		}
		total := len(dls)
		recovered := 0
		deadline := time.Now().Add(30 * time.Second)
		for len(dls) > 0 && time.Now().Before(deadline) {
			for _, dl := range dls {
				if _, err := hub.Resubmit(ctx, dl); err == nil {
					recovered++
				}
			}
			if dls = hub.DrainDeadLetters(); len(dls) > 0 {
				time.Sleep(*probeInterval)
			}
		}
		fmt.Printf("healed backends: %d/%d dead letters resubmitted successfully\n", recovered, total)
	}
	printConfigMetrics(hub)
	printStageMetrics(hub)
	if *trace {
		printShardMetrics(hub)
		printHealthMetrics(hub)
		printPlanMetrics(hub)
	}
}

// findExchange returns the ID of the first submitted exchange whose event
// stream contains an event of the given kind (and step, unless empty).
func findExchange(hub *core.Hub, futs []*core.Future, kind obs.Kind, step string) string {
	done := context.Background()
	for _, fut := range futs {
		res := fut.Result(done)
		if res.Exchange == nil {
			continue
		}
		for _, e := range hub.Events(res.Exchange.ID) {
			if e.Kind == kind && (step == "" || e.Step == step) {
				return res.Exchange.ID
			}
		}
	}
	return ""
}

// printTrace renders one exchange's structured event stream: every routing
// hop and step execution in emission order, with per-step timings.
func printTrace(hub *core.Hub, exchangeID string) {
	events := hub.Events(exchangeID)
	if len(events) == 0 {
		return
	}
	fmt.Printf("exchange %s event stream:\n", exchangeID)
	for _, e := range events {
		switch e.Kind {
		case obs.KindRoute:
			fmt.Printf("   route  %s\n", e.Step)
		case obs.KindStep:
			status := ""
			if e.Err != nil {
				status = "  ERR: " + e.Err.Error()
			}
			fmt.Printf("   step   %-8s %-28s %8v%s\n", e.Stage, e.Step, e.Elapsed.Round(time.Microsecond), status)
		case obs.KindRetry:
			switch e.Step {
			case obs.StepAttempt:
				fmt.Printf("   retry  %-8s attempt failed: %v\n", e.Stage, e.Err)
			case obs.StepBackoff:
				fmt.Printf("   retry  %-8s backing off %v\n", e.Stage, e.Elapsed)
			}
		case obs.KindExchange:
			status := ""
			if (e.Step == obs.StepFailed || e.Step == obs.StepDeadLetter) && e.Err != nil {
				status = "  ERR: " + e.Err.Error()
			}
			fmt.Printf("   %-6s %s (%v)%s\n", e.Step, e.ExchangeID, e.Elapsed.Round(time.Microsecond), status)
		}
	}
}

// printShardMetrics renders the scheduler's per-shard gauges (queue depth,
// busy workers, completed throughput, bypass admissions).
func printShardMetrics(hub *core.Hub) {
	snaps := hub.Status().Sched.PerShard
	if len(snaps) == 0 {
		return
	}
	fmt.Println("scheduler shards (queued, busy, completed, bypassed-in):")
	for _, s := range snaps {
		fmt.Printf("   shard %2d  %4d %4d %6d %6d\n", s.Shard, s.Queued, s.Busy, s.Completed, s.Bypassed)
	}
}

// printHealthMetrics renders the per-partner circuit-breaker gauges: the
// live breaker state and failure rate from the tracker, merged with the
// transition/probe/rejection counters derived from the KindHealth event
// stream. Prints nothing when the hub runs without -breaker-threshold.
func printHealthMetrics(hub *core.Hub) {
	tracker := hub.Health()
	if tracker == nil {
		return
	}
	live := map[string]health.Stats{}
	for _, s := range tracker.Snapshot() {
		live[s.Partner] = s
	}
	gauges := hub.Status().Partners
	if len(live) == 0 && len(gauges) == 0 {
		return
	}
	fmt.Println("partner health (state, fail-rate, opens, probes, sheds, fast-fails):")
	seen := map[string]bool{}
	for _, g := range gauges {
		seen[g.Partner] = true
		s := live[g.Partner]
		fmt.Printf("   %-4s %-9s %5.0f%% %6d %6d %6d %6d\n",
			g.Partner, s.State, s.FailureRate*100, g.Opens, g.Probes, g.Sheds, g.FastFails)
	}
	for _, s := range tracker.Snapshot() {
		if !seen[s.Partner] {
			fmt.Printf("   %-4s %-9s %5.0f%% %6d %6d %6d %6d\n",
				s.Partner, s.State, s.FailureRate*100, s.Opens, 0, 0, 0)
		}
	}
}

// printPlanMetrics renders the deploy-time compilation gauges and the shape
// of the engine's live plan cache.
func printPlanMetrics(hub *core.Hub) {
	snap := hub.Status().Plans
	stats := metrics.PlanStatsOf(hub.Engine)
	fmt.Printf("compiled plans: %d cached (%d steps, %d arcs, max parallel width %d); "+
		"%d compilations (%d rejected) in %v, plan epoch %d\n",
		stats.Plans, stats.Steps, stats.Arcs, stats.MaxWidth,
		snap.Compiled+snap.Rejected, snap.Rejected, snap.CompileTime.Round(time.Microsecond), stats.Epoch)
}

// printStageMetrics renders the per-stage latency summary derived from the
// event stream.
func printStageMetrics(hub *core.Hub) {
	snaps := hub.Status().Stages
	if len(snaps) == 0 {
		return
	}
	fmt.Println("per-stage latency (count, errors, mean, p50, p95, p99, max):")
	for _, s := range snaps {
		fmt.Printf("   %-9s %6d %3d  %8v %8v %8v %8v %8v\n",
			s.Stage, s.Count, s.Errors,
			s.Mean.Round(time.Microsecond), s.P50, s.P95, s.P99, s.Max.Round(time.Microsecond))
	}
}
