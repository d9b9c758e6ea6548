package main

// The tests run the real main in a child process: the test binary
// re-executes itself with B2BHUB_RUN_MAIN=1, and TestMain then runs main
// with the child's arguments instead of the tests, so flag parsing,
// output and exit status are the command's own.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/server"
)

func TestMain(m *testing.M) {
	if os.Getenv("B2BHUB_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runB2BHub runs main with args in a child process and returns its
// combined output; the test fails unless the child exits 0.
func runB2BHub(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "B2BHUB_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("b2bhub %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// matchInts finds rx in out and returns its integer submatches.
func matchInts(t *testing.T, out string, rx *regexp.Regexp) []int {
	t.Helper()
	m := rx.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output has no line matching %q:\n%s", rx, out)
	}
	var ns []int
	for _, s := range m[1:] {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, n)
	}
	return ns
}

var (
	accountingRx = regexp.MustCompile(`(?m)^accounting: (\d+) completed \+ (\d+) dead-lettered = (\d+);`)
	healedRx     = regexp.MustCompile(`(?m)^healed backends: (\d+)/(\d+) dead letters resubmitted successfully$`)
)

// TestChaosAccountingAndHeal: chaos mode over the two Figure 14 partners
// accounts for every order, and the heal loop reruns every dead letter by
// ID to success.
func TestChaosAccountingAndHeal(t *testing.T) {
	out := runB2BHub(t, "-n", "10", "-berr", "0.5", "-battempts", "2")
	acc := matchInts(t, out, accountingRx)
	completed, dead, total := acc[0], acc[1], acc[2]
	if completed+dead != total || total != 20 {
		t.Fatalf("accounting %d completed + %d dead-lettered = %d, want a sum of 20", completed, dead, total)
	}
	if dead == 0 {
		t.Fatalf("no order dead-lettered at a 50%% backend error rate:\n%s", out)
	}
	healed := matchInts(t, out, healedRx)
	if healed[0] != dead || healed[1] != dead {
		t.Fatalf("healed backends: %d/%d, want %d/%d", healed[0], healed[1], dead, dead)
	}
}

// TestDemoRoundTrips: the plain demo drives five orders per partner
// through the network clients and exits 0.
func TestDemoRoundTrips(t *testing.T) {
	out := runB2BHub(t, "-n", "5")
	if !regexp.MustCompile(`(?m)^10 round trips in `).MatchString(out) {
		t.Fatalf("demo output lacks %q:\n%s", "10 round trips", out)
	}
}

// serveChild starts `b2bhub -serve 127.0.0.1:0` with args in a child
// process and returns its listening address and the command, which the
// caller kills. Startup lines go to the log.
func serveChild(t *testing.T, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-serve", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "B2BHUB_RUN_MAIN=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	lines := bufio.NewScanner(out)
	for lines.Scan() {
		line := lines.Text()
		t.Logf("b2bhub: %s", line)
		if strings.HasPrefix(line, "journal change not replayed") {
			t.Errorf("restart left a change out: %s", line)
		}
		if addr, ok := strings.CutPrefix(line, "b2bhub daemon listening on "); ok {
			go io.Copy(io.Discard, out)
			return addr, cmd
		}
	}
	t.Fatalf("b2bhub exited before listening: %v", lines.Err())
	return "", nil
}

// TestServeRestartsOnItsJournal: a daemon booted with -tp3, -invoice and
// -fa997 on a journal is killed with SIGKILL after serving TP3 orders, and
// boots again with the same flags and journal: the startup changes are
// part of its startup model, so the restart neither replays nor repeats
// them, recovers, and serves TP3 orders and invoices.
func TestServeRestartsOnItsJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two daemon processes")
	}
	args := []string{"-journal", filepath.Join(t.TempDir(), "hub.wal"), "-tp3", "-invoice", "-fa997"}
	tp3 := doc.Party{ID: "TP3", Name: "Trading Partner 3", DUNS: "333333333"}
	hubParty := doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
	g := doc.NewGenerator(5)
	order := func(addr string, invoice bool) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c, err := server.Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		po := g.PO(tp3, hubParty)
		body, err := json.Marshal(po)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(ctx, server.SubmitRequest{Kind: "po", PO: body}); err != nil {
			t.Fatalf("TP3 order %s: %v", po.ID, err)
		}
		if invoice {
			if _, err := c.Submit(ctx, server.SubmitRequest{Kind: "invoice", PartnerID: "TP3", POID: po.ID}); err != nil {
				t.Fatalf("TP3 invoice for %s: %v", po.ID, err)
			}
		}
	}

	addr, first := serveChild(t, args...)
	for i := 0; i < 3; i++ {
		order(addr, i == 0)
	}
	if err := first.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	first.Wait()

	addr, _ = serveChild(t, args...)
	order(addr, true)
}
