package main

// The tests run the real main in a child process: the test binary
// re-executes itself with B2BHUB_RUN_MAIN=1, and TestMain then runs main
// with the child's arguments instead of the tests, so flag parsing,
// output and exit status are the command's own.

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
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
