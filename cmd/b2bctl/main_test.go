package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/leakcheck"
	"repro/internal/server"
)

// startDaemon boots a journaled Figure 14 hub with a running scheduler and
// serves it on an ephemeral loopback port, returning the address b2bctl
// should dial.
func startDaemon(t *testing.T, opts ...core.HubOption) (string, *core.Hub) {
	t.Helper()
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]core.HubOption{core.WithJournal(filepath.Join(t.TempDir(), "hub.journal"))}, opts...)
	h, err := core.NewHub(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	h.StartScheduler()
	d, err := server.NewDaemon(h, "127.0.0.1:0", server.WithName("golden-hub"))
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve() }()
	t.Cleanup(func() {
		d.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
		h.Drain(context.Background())
		h.CloseJournal()
	})
	return d.Addr(), h
}

// ctl runs one b2bctl command against addr and returns exit code, stdout
// and stderr.
func ctl(t *testing.T, addr string, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(append([]string{"-addr", addr}, args...), &out, &errw)
	return code, out.String(), errw.String()
}

var durRx = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s)`)

// normalize strips the volatile parts of b2bctl output — durations — so
// the rest can be compared byte for byte against a golden string.
func normalize(s string) string {
	return durRx.ReplaceAllString(s, "DUR")
}

// TestGoldenSubmitTraceDLQDrain drives the full command surface against a
// live daemon and pins the exact rendered output (durations normalized).
func TestGoldenSubmitTraceDLQDrain(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	addr, _ := startDaemon(t)

	code, out, errOut := ctl(t, addr, "submit", "-partner", "TP1", "-n", "2", "-seed", "7")
	if code != 0 {
		t.Fatalf("submit exit %d, stderr %q", code, errOut)
	}
	wantSubmit := "submitted TP1 PO-TP1-000001: exchange ex-000001 acked\n" +
		"submitted TP1 PO-TP1-000002: exchange ex-000002 acked\n"
	if out != wantSubmit {
		t.Errorf("submit output:\n%q\nwant:\n%q", out, wantSubmit)
	}

	code, out, _ = ctl(t, addr, "submit", "-partner", "TP2", "-seed", "3", "-high")
	if code != 0 {
		t.Fatalf("high-lane submit exit %d", code)
	}
	if !strings.Contains(out, "ex-000003") || !strings.Contains(out, "TP2") {
		t.Errorf("high-lane submit output %q", out)
	}

	code, out, errOut = ctl(t, addr, "trace", "ex-000001")
	if code != 0 {
		t.Fatalf("trace exit %d, stderr %q", code, errOut)
	}
	wantTrace := `exchange ex-000001: partner=TP1 flow=po protocol=EDI-X12 backend=SAP
  public process hub-000001 started
  public → binding
  binding → private
  private → application binding
  application binding → private
  private → binding
  binding → public
  public → network
`
	if out != wantTrace {
		t.Errorf("trace output:\n%q\nwant:\n%q", out, wantTrace)
	}

	code, out, _ = ctl(t, addr, "dlq")
	if code != 0 || out != "dead letters: 0\n" {
		t.Errorf("dlq exit %d output %q", code, out)
	}

	code, out, _ = ctl(t, addr, "status")
	if code != 0 {
		t.Fatalf("status exit %d", code)
	}
	norm := normalize(out)
	for _, want := range []string{
		"golden-hub: status schema v1, protocol v1\n",
		"exchanges: 3 started, 0 failed, 0 retries, 0 dead-lettered\n",
		"by partner: TP1=2 TP2=1\n",
		"sched: running=true shards=",
		"dlq: depth=0 cap=",
		"journal: enabled=true pending-admits=0 unresolved-dead-letters=0\n",
	} {
		if !strings.Contains(norm, want) {
			t.Errorf("status output missing %q:\n%s", want, norm)
		}
	}

	code, out, errOut = ctl(t, addr, "drain")
	if code != 0 {
		t.Fatalf("drain exit %d, stderr %q", code, errOut)
	}
	wantDrain := "drained: completed=3 failed=0 shed=0 dead-lettered=0 checkpointed=true timed-out=false\n"
	if out != wantDrain {
		t.Errorf("drain output %q, want %q", out, wantDrain)
	}
}

// TestGoldenStatusJSON pins the machine-readable escape hatch: -json emits
// the StatusSnapshot verbatim with its stable keys.
func TestGoldenStatusJSON(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	addr, _ := startDaemon(t)
	code, out, errOut := ctl(t, addr, "status", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, key := range []string{`"version": 1`, `"exchanges"`, `"sched"`, `"dlq"`, `"journal"`} {
		if !strings.Contains(out, key) {
			t.Errorf("json output missing %s:\n%s", key, out)
		}
	}
}

// TestGoldenResubmit pins the DLQ management rendering: a hard-down backend
// dead-letters a submit, dlq lists it, resubmit -all replays it after the
// backend heals, and after a drain a refused resubmit leaves its entry
// queued under its own ID.
func TestGoldenResubmit(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	addr, h := startDaemon(t)
	var faults []*backend.Faulty
	h.WrapBackends(func(sys backend.System) backend.System {
		f := backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 1.0, Seed: 9})
		faults = append(faults, f)
		return f
	})
	h.SetDefaultRetryPolicy(core.RetryPolicy{MaxAttempts: 2})

	code, _, errOut := ctl(t, addr, "submit", "-partner", "TP1", "-seed", "5")
	if code != 1 {
		t.Fatalf("submit against dead backend: exit %d", code)
	}
	if !strings.Contains(errOut, "ex-000001") || !strings.Contains(errOut, "TP1") {
		t.Errorf("submit error lacks exchange context: %q", errOut)
	}

	code, out, _ := ctl(t, addr, "dlq")
	if code != 0 {
		t.Fatalf("dlq exit %d", code)
	}
	if !strings.HasPrefix(out, "dead letters: 1\n") ||
		!strings.Contains(out, "ex-000001 partner=TP1 flow=po protocol=EDI-X12 reason=") {
		t.Errorf("dlq output:\n%s", out)
	}

	// Still broken: the resubmission fails and re-parks, exit 1.
	code, out, _ = ctl(t, addr, "resubmit", "ex-000001")
	if code != 1 || !strings.Contains(out, "resubmit ex-000001 failed (re-parked):") {
		t.Errorf("broken resubmit: exit %d output %q", code, out)
	}

	for _, f := range faults {
		f.SetSchedule(backend.FaultSchedule{})
	}
	code, out, errOut = ctl(t, addr, "resubmit", "-all")
	if code != 0 {
		t.Fatalf("healed resubmit exit %d, stderr %q", code, errOut)
	}
	// The failed rerun re-parked as a fresh exchange (ex-000002); the
	// healed replay runs it as ex-000003.
	if wantHealed := "resubmitted ex-000002 as ex-000003\nresubmitted 1/1\n"; out != wantHealed {
		t.Errorf("healed resubmit output:\n%q\nwant:\n%q", out, wantHealed)
	}
	if _, out, _ = ctl(t, addr, "dlq"); out != "dead letters: 0\n" {
		t.Errorf("queue not empty after resubmit: %q", out)
	}

	// Broken again, one more dead letter (ex-000004), then a drain: the
	// refused rerun creates no exchange, so nothing is re-parked.
	for _, f := range faults {
		f.SetSchedule(backend.FaultSchedule{ErrProb: 1.0, Seed: 9})
	}
	if code, _, _ := ctl(t, addr, "submit", "-partner", "TP1", "-seed", "6"); code != 1 {
		t.Fatalf("submit against dead backend: exit %d", code)
	}
	if code, _, errOut := ctl(t, addr, "drain"); code != 0 {
		t.Fatalf("drain exit %d, stderr %q", code, errOut)
	}
	code, out, _ = ctl(t, addr, "resubmit", "ex-000004")
	wantRefused := "resubmit ex-000004 failed (still queued): core: hub scheduler stopped\nresubmitted 0/1\n"
	if code != 1 || out != wantRefused {
		t.Errorf("refused resubmit: exit %d output:\n%q\nwant exit 1 and:\n%q", code, out, wantRefused)
	}
	if _, out, _ = ctl(t, addr, "dlq"); !strings.HasPrefix(out, "dead letters: 1\n") || !strings.Contains(out, "ex-000004 ") {
		t.Errorf("dlq after a refused resubmit:\n%s", out)
	}
}

// TestGoldenDurabilityStatusAndScrub pins the storage-health surface on a
// healthy daemon: the durability/storage lines in status, the durability
// key in -json, and a clean scrub exiting 0.
func TestGoldenDurabilityStatusAndScrub(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	addr, h := startDaemon(t)

	if code, _, errOut := ctl(t, addr, "submit", "-partner", "TP1", "-seed", "11"); code != 0 {
		t.Fatalf("submit exit %d, stderr %q", code, errOut)
	}

	code, out, _ := ctl(t, addr, "status")
	if code != 0 {
		t.Fatalf("status exit %d", code)
	}
	for _, want := range []string{
		"durability: mode=durable policy=fail-stop append-failures=0 rejected-admits=0 non-durable-admits=0 probes=0 rearms=0 poisoned=0\n",
		"storage: corrupt=0 quarantined-bytes=0 rotations=0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}

	code, out, _ = ctl(t, addr, "status", "-json")
	if code != 0 {
		t.Fatalf("status -json exit %d", code)
	}
	for _, key := range []string{`"durability"`, `"mode": "durable"`, `"policy": "fail-stop"`} {
		if !strings.Contains(out, key) {
			t.Errorf("json status missing %s:\n%s", key, out)
		}
	}

	code, out, errOut := ctl(t, addr, "scrub")
	if code != 0 {
		t.Fatalf("clean scrub exit %d, stderr %q", code, errOut)
	}
	prefix := "scrub " + h.Journal().Path() + ": records="
	if !strings.HasPrefix(out, prefix) ||
		!strings.HasSuffix(out, " corrupt=0 quarantined-bytes=0 torn-bytes=0\n") {
		t.Errorf("clean scrub output %q, want %q...corrupt=0", out, prefix)
	}

	code, out, _ = ctl(t, addr, "scrub", "-json")
	if code != 0 {
		t.Fatalf("scrub -json exit %d", code)
	}
	for _, key := range []string{`"path"`, `"records"`, `"corrupt": 0`, `"quarantined_bytes": 0`, `"torn_bytes": 0`} {
		if !strings.Contains(out, key) {
			t.Errorf("scrub json missing %s:\n%s", key, out)
		}
	}
}

// TestGoldenScrubCorruptJournal pins the dirty-scrub contract: mid-file
// rot makes scrub report the region, print the account to stdout, explain
// itself on stderr and exit 2 — distinct from daemon failures (1) but
// scriptable like usage errors.
func TestGoldenScrubCorruptJournal(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	addr, h := startDaemon(t)
	if code, _, errOut := ctl(t, addr, "submit", "-partner", "TP1", "-n", "2", "-seed", "13"); code != 0 {
		t.Fatalf("submit exit %d, stderr %q", code, errOut)
	}
	corruptMidFileRecord(t, h.Journal().Path())

	code, out, errOut := ctl(t, addr, "scrub")
	if code != 2 {
		t.Fatalf("dirty scrub exit %d, want 2 (stderr %q)", code, errOut)
	}
	if !strings.Contains(out, " corrupt=1 quarantined-bytes=") {
		t.Errorf("dirty scrub stdout %q, want the corrupt region accounted", out)
	}
	if !strings.Contains(errOut, "journal has corrupt records: 1 regions") {
		t.Errorf("dirty scrub stderr %q, want the corrupt explanation", errOut)
	}

	if code, _, _ := ctl(t, addr, "scrub", "-json"); code != 2 {
		t.Errorf("dirty scrub -json exit %d, want 2", code)
	}
	// The walk is read-only: the daemon keeps serving and status still
	// exits 0 (quarantining happens at the next open with scrub enabled).
	if code, _, _ := ctl(t, addr, "status"); code != 0 {
		t.Errorf("status after dirty scrub exit %d, want 0", code)
	}
}

// corruptMidFileRecord flips the payload bytes of an early record in the
// journal at path, leaving valid frames after it — mid-file rot, not a
// torn tail.
func corruptMidFileRecord(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := journal.Decode(data)
	if len(recs) < 2 {
		t.Fatalf("journal has %d records, need 2+ for mid-file rot", len(recs))
	}
	frame, err := journal.Encode(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	for b := 8; b < len(frame); b++ {
		data[b] ^= 0xFF
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestUsageAndErrors pins the exit-code contract: 2 for usage mistakes,
// 1 for daemon-side failures, with the typed error text intact.
func TestUsageAndErrors(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	addr, _ := startDaemon(t)

	if code, _, _ := ctl(t, addr, "frobnicate"); code != 2 {
		t.Errorf("unknown command exit %d, want 2", code)
	}
	if code, _, _ := ctl(t, addr); code != 2 {
		t.Errorf("no command exit %d, want 2", code)
	}
	if code, _, _ := ctl(t, addr, "trace"); code != 2 {
		t.Errorf("trace without ID exit %d, want 2", code)
	}
	code, _, errOut := ctl(t, addr, "trace", "ex-999999")
	if code != 1 || !strings.Contains(errOut, "not found") {
		t.Errorf("missing exchange: exit %d stderr %q", code, errOut)
	}
	code, _, errOut = ctl(t, addr, "submit", "-partner", "NOPE")
	if code != 1 || !strings.Contains(errOut, "unknown trading partner") {
		t.Errorf("unknown partner: exit %d stderr %q", code, errOut)
	}

	var out, errw bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:1", "-timeout", "2s", "status"}, &out, &errw); code != 1 {
		t.Errorf("unreachable daemon exit %d, want 1", code)
	}
}
