// Command b2bctl is the operator's client for a running b2bhub daemon
// (`b2bhub -serve ADDR`). It speaks the versioned wire protocol from
// internal/server: submit pushes generated purchase orders through the
// remote hub, status renders the unified StatusSnapshot, trace prints one
// exchange's event stream, dlq/resubmit manage the dead-letter queue, and
// drain triggers a graceful remote shutdown of admission.
//
// Usage:
//
//	b2bctl [-addr 127.0.0.1:7340] [-timeout 30s] <command> [args]
//
//	b2bctl status [-json]
//	b2bctl submit [-partner TP1] [-n 1] [-seed 1] [-high]
//	b2bctl trace EXCHANGE-ID
//	b2bctl dlq
//	b2bctl resubmit (-all | EXCHANGE-ID)
//	b2bctl drain [-drain-timeout 30s]
//	b2bctl scrub [-json]
//
// scrub walks the daemon's journal read-only and reports valid records,
// mid-file corrupt regions and torn tail bytes; it exits 2 when corrupt
// regions exist, so a cron probe can alarm on rot without parsing output.
//
// Wire errors arrive typed: the daemon's *core.ExchangeError round-trips
// the protocol, so a failed submit reports the partner, stage and error
// class (invalid-request vs partner-unavailable, etc.) exactly as an
// in-process caller would see them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes one command
// against the daemon and writes human-readable output to out. It returns
// the process exit code (0 ok, 1 failure, 2 usage error).
func run(args []string, out, errw io.Writer) int {
	global := flag.NewFlagSet("b2bctl", flag.ContinueOnError)
	global.SetOutput(errw)
	addr := global.String("addr", "127.0.0.1:7340", "daemon address (host:port)")
	timeout := global.Duration("timeout", 30*time.Second, "deadline for the whole command")
	global.Usage = func() { usage(errw, global) }
	if err := global.Parse(args); err != nil {
		return 2
	}
	rest := global.Args()
	if len(rest) == 0 {
		usage(errw, global)
		return 2
	}
	cmd, rest := rest[0], rest[1:]

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c, err := server.Dial(ctx, *addr)
	if err != nil {
		fmt.Fprintf(errw, "b2bctl: %v\n", err)
		return 1
	}
	defer c.Close()

	var cmdErr error
	switch cmd {
	case "status":
		cmdErr = cmdStatus(ctx, c, rest, out, errw)
	case "submit":
		cmdErr = cmdSubmit(ctx, c, rest, out, errw)
	case "trace":
		cmdErr = cmdTrace(ctx, c, rest, out, errw)
	case "dlq":
		cmdErr = cmdDLQ(ctx, c, out)
	case "resubmit":
		cmdErr = cmdResubmit(ctx, c, rest, out, errw)
	case "drain":
		cmdErr = cmdDrain(ctx, c, rest, out, errw)
	case "cluster":
		cmdErr = cmdCluster(ctx, c, rest, out, errw)
	case "scrub":
		cmdErr = cmdScrub(ctx, c, rest, out, errw)
	default:
		fmt.Fprintf(errw, "b2bctl: unknown command %q\n", cmd)
		usage(errw, global)
		return 2
	}
	if cmdErr != nil {
		if errors.Is(cmdErr, errUsage) {
			return 2
		}
		fmt.Fprintf(errw, "b2bctl: %v\n", cmdErr)
		if errors.Is(cmdErr, errCorrupt) {
			return 2
		}
		return 1
	}
	return 0
}

// errUsage marks a per-command flag-parse failure (exit 2, message already
// printed by the FlagSet).
var errUsage = errors.New("usage")

// errCorrupt marks a scrub that found corrupt records (exit 2, so probes
// can distinguish "journal has rot" from connection failures).
var errCorrupt = errors.New("journal has corrupt records")

func usage(w io.Writer, global *flag.FlagSet) {
	fmt.Fprintln(w, "usage: b2bctl [-addr host:port] [-timeout d] <command> [args]")
	fmt.Fprintln(w, "commands: status, submit, trace, dlq, resubmit, drain, cluster, scrub")
	global.PrintDefaults()
}

func cmdStatus(ctx context.Context, c *server.Client, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	fs.SetOutput(errw)
	asJSON := fs.Bool("json", false, "print the raw StatusSnapshot JSON")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	st, err := c.Status(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	renderStatus(out, c.Hello(), st)
	return nil
}

// renderStatus prints the unified snapshot as a stable, greppable report.
func renderStatus(out io.Writer, hello server.HelloResponse, st *core.StatusSnapshot) {
	fmt.Fprintf(out, "%s: status schema v%d, protocol v%d\n", hello.Name, st.Version, hello.Version)
	e := st.Exchanges
	fmt.Fprintf(out, "exchanges: %d started, %d failed, %d retries, %d dead-lettered\n",
		e.Started, e.Failed, e.Retries, e.DeadLettered)
	if len(e.ByPartner) > 0 {
		ids := make([]string, 0, len(e.ByPartner))
		for id := range e.ByPartner {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprint(out, "by partner:")
		for _, id := range ids {
			fmt.Fprintf(out, " %s=%d", id, e.ByPartner[id])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "sched: running=%v shards=%d shed=%d\n", st.Sched.Running, st.Sched.Shards, st.Sched.Shed)
	fmt.Fprintf(out, "dlq: depth=%d cap=%d\n", st.DLQ.Depth, st.DLQ.Cap)
	fmt.Fprintf(out, "journal: enabled=%v pending-admits=%d unresolved-dead-letters=%d\n",
		st.Journal.Enabled, st.Journal.PendingAdmits, st.Journal.UnresolvedDeadLetters)
	if st.Durability != nil {
		renderDurability(out, st.Durability)
	}
	for _, s := range st.Stages {
		fmt.Fprintf(out, "stage %-9s count=%d errors=%d mean=%v p95=%v max=%v\n",
			s.Stage, s.Count, s.Errors, s.Mean.Round(time.Microsecond), s.P95, s.Max.Round(time.Microsecond))
	}
	for _, p := range st.Partners {
		fmt.Fprintf(out, "partner %-4s opens=%d probes=%d sheds=%d fast-fails=%d\n",
			p.Partner, p.Opens, p.Probes, p.Sheds, p.FastFails)
	}
	if st.Cluster != nil {
		renderCluster(out, st.Cluster)
	}
}

// renderDurability prints the storage-health section as stable, greppable
// lines: the failure-policy state on one line, the on-disk accounting
// (quarantined rot, compactions) on the next.
func renderDurability(out io.Writer, ds *core.DurabilityStatus) {
	line := fmt.Sprintf("durability: mode=%s policy=%s append-failures=%d rejected-admits=%d non-durable-admits=%d probes=%d rearms=%d poisoned=%d",
		ds.Mode, ds.Policy, ds.AppendFailures, ds.RejectedAdmits, ds.NonDurableAdmits, ds.Probes, ds.Rearms, ds.Poisoned)
	if ds.LastError != "" {
		line += fmt.Sprintf(" last-error=%q", ds.LastError)
	}
	fmt.Fprintln(out, line)
	fmt.Fprintf(out, "storage: corrupt=%d quarantined-bytes=%d rotations=%d\n",
		ds.Corrupt, ds.QuarantinedBytes, ds.Rotations)
}

// renderCluster prints the federation section as stable, greppable lines.
func renderCluster(out io.Writer, cs *core.ClusterStatus) {
	fmt.Fprintf(out, "cluster: node %s, schema v%d, %d members\n", cs.Node, cs.Version, len(cs.Peers))
	for _, p := range cs.Peers {
		line := fmt.Sprintf("peer %-4s %-7s addr=%s", p.Node, p.State, p.Addr)
		if p.State != core.PeerSelf {
			line += fmt.Sprintf(" missed=%d breaker=%s", p.MissedBeats, p.Breaker)
		}
		if len(p.Partners) > 0 {
			sort.Strings(p.Partners)
			line += " owns=" + strings.Join(p.Partners, ",")
		}
		fmt.Fprintln(out, line)
	}
	if len(cs.Ownership) > 0 {
		ids := make([]string, 0, len(cs.Ownership))
		for id := range cs.Ownership {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprint(out, "ownership:")
		for _, id := range ids {
			fmt.Fprintf(out, " %s=%s", id, cs.Ownership[id])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "forwards: %d out, %d in, %d retries, %d failed\n",
		cs.Forwarded, cs.ForwardedIn, cs.ForwardRetries, cs.ForwardFailed)
	fmt.Fprintf(out, "takeovers: %d journals replayed, %d exchanges taken over\n",
		cs.Takeovers, cs.TakenOver)
}

// cmdCluster renders just the federation section of the remote status (or
// its raw JSON with -json). A standalone daemon has none.
func cmdCluster(ctx context.Context, c *server.Client, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	fs.SetOutput(errw)
	asJSON := fs.Bool("json", false, "print the raw ClusterStatus JSON")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	st, err := c.Status(ctx)
	if err != nil {
		return err
	}
	if st.Cluster == nil {
		return errors.New("daemon is not in cluster mode (started without -peers)")
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(st.Cluster)
	}
	renderCluster(out, st.Cluster)
	return nil
}

func cmdSubmit(ctx context.Context, c *server.Client, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(errw)
	partner := fs.String("partner", "TP1", "trading partner ID the orders are submitted for")
	n := fs.Int("n", 1, "number of purchase orders to submit")
	seed := fs.Int64("seed", 1, "deterministic order-generator seed")
	high := fs.Bool("high", false, "use the high-priority scheduler lane")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	buyer := doc.Party{ID: *partner, Name: *partner + " via b2bctl", DUNS: "000000000"}
	hubParty := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
	g := doc.NewGenerator(*seed)
	for i := 0; i < *n; i++ {
		po := g.PO(buyer, hubParty)
		req, err := server.PORequest(po)
		if err != nil {
			return err
		}
		req.High = *high
		resp, err := c.Submit(ctx, req)
		if err != nil {
			return fmt.Errorf("submit %s order %d: %w", *partner, i, err)
		}
		poa := &doc.PurchaseOrderAck{}
		if err := json.Unmarshal(resp.POA, poa); err != nil {
			return fmt.Errorf("submit %s order %d: decode poa: %w", *partner, i, err)
		}
		if poa.POID != po.ID {
			return fmt.Errorf("submit %s order %d: ack correlates %q, want %q", *partner, i, poa.POID, po.ID)
		}
		fmt.Fprintf(out, "submitted %s %s: exchange %s acked\n", resp.Partner, po.ID, resp.ExchangeID)
	}
	return nil
}

func cmdTrace(ctx context.Context, c *server.Client, args []string, out, errw io.Writer) error {
	if len(args) != 1 {
		fmt.Fprintln(errw, "usage: b2bctl trace EXCHANGE-ID")
		return errUsage
	}
	tr, err := c.Trace(ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "exchange %s: partner=%s flow=%s protocol=%s backend=%s\n",
		tr.ExchangeID, tr.Partner, tr.Flow, tr.Protocol, tr.Backend)
	for _, line := range tr.Trace {
		fmt.Fprintf(out, "  %s\n", line)
	}
	return nil
}

func cmdDLQ(ctx context.Context, c *server.Client, out io.Writer) error {
	resp, err := c.DLQ(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dead letters: %d\n", len(resp.Entries))
	for _, e := range resp.Entries {
		fmt.Fprintf(out, "  %s partner=%s flow=%s protocol=%s reason=%q\n",
			e.ExchangeID, e.Partner, e.Flow, e.Protocol, e.Reason)
	}
	return nil
}

func cmdResubmit(ctx context.Context, c *server.Client, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("resubmit", flag.ContinueOnError)
	fs.SetOutput(errw)
	all := fs.Bool("all", false, "resubmit every queued dead letter")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	id := ""
	if !*all {
		if fs.NArg() != 1 {
			fmt.Fprintln(errw, "usage: b2bctl resubmit (-all | EXCHANGE-ID)")
			return errUsage
		}
		id = fs.Arg(0)
	}
	resp, err := c.Resubmit(ctx, id, *all)
	if err != nil {
		return err
	}
	failed := 0
	for _, o := range resp.Outcomes {
		if o.Err != nil {
			failed++
			// A rerun that created no exchange (a drained hub refused it,
			// or it failed before its exchange existed) parked nothing
			// new: the original entry is still queued.
			fate := "re-parked"
			if o.NewExchangeID == "" {
				fate = "still queued"
			}
			fmt.Fprintf(out, "resubmit %s failed (%s): %s\n", o.ExchangeID, fate, o.Err.Message)
			continue
		}
		fmt.Fprintf(out, "resubmitted %s as %s\n", o.ExchangeID, o.NewExchangeID)
	}
	fmt.Fprintf(out, "resubmitted %d/%d\n", len(resp.Outcomes)-failed, len(resp.Outcomes))
	if failed > 0 {
		return fmt.Errorf("%d of %d resubmissions failed", failed, len(resp.Outcomes))
	}
	return nil
}

func cmdScrub(ctx context.Context, c *server.Client, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("scrub", flag.ContinueOnError)
	fs.SetOutput(errw)
	asJSON := fs.Bool("json", false, "print the raw ScrubResponse JSON")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	resp, err := c.Scrub(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "scrub %s: records=%d corrupt=%d quarantined-bytes=%d torn-bytes=%d\n",
			resp.Path, resp.Records, resp.Corrupt, resp.QuarantinedBytes, resp.TornBytes)
	}
	if resp.Corrupt > 0 {
		return fmt.Errorf("%w: %d regions, %d bytes", errCorrupt, resp.Corrupt, resp.QuarantinedBytes)
	}
	return nil
}

func cmdDrain(ctx context.Context, c *server.Client, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("drain", flag.ContinueOnError)
	fs.SetOutput(errw)
	dt := fs.Duration("drain-timeout", 0, "deadline for in-flight exchanges (0 = daemon default)")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	resp, err := c.Drain(ctx, dt.Milliseconds())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "drained: completed=%d failed=%d shed=%d dead-lettered=%d checkpointed=%v timed-out=%v\n",
		resp.Completed, resp.Failed, resp.Shed, resp.DeadLettered, resp.Checkpointed, resp.TimedOut)
	if resp.TimedOut {
		return errors.New("drain deadline expired before in-flight exchanges finished")
	}
	return nil
}
