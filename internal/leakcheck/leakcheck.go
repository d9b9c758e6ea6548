// Package leakcheck asserts that a test leaves no goroutines of this
// module behind. It snapshots the IDs of the goroutines alive at the
// start and, at the end, polls until every goroutine started since —
// and created by one of this module's functions — has exited, failing
// with the stacks of the stragglers when they do not. Identity-based
// comparison (goroutine IDs are never reused within a process) keeps the
// check reliable under t.Parallel() and shared background machinery: an
// unrelated goroutine exiting elsewhere cannot mask a leak the way a raw
// runtime.NumGoroutine() baseline could, and goroutines of the runtime,
// the testing harness or third-party packages are ignored entirely. Use
// it around anything that starts workers (the hub scheduler, probe-driven
// breakers) to prove Stop/Drain really reap them:
//
//	defer leakcheck.Check(t)()
//	h := newHub(t)
//	defer h.Drain(context.Background())
//
// Deferred FIRST so it runs LAST (LIFO), after the deferred shutdown. A
// shutdown registered with t.Cleanup needs the check registered the same
// way, before it: t.Cleanup(leakcheck.Check(t)).
package leakcheck

import (
	"sort"
	"strings"
	"testing"
	"time"

	"runtime"
)

// modulePrefix is the import-path prefix of goroutine entry points this
// package polices ("created by" frames of stack dumps).
const modulePrefix = "repro"

// pollDeadline bounds the grace period before a straggler is reported
// (goroutine exit is asynchronous even after WaitGroup.Wait returns).
// Overridden by this package's own tests.
var pollDeadline = 3 * time.Second

// Check snapshots the live goroutines and returns the assertion to defer.
func Check(t testing.TB) func() {
	t.Helper()
	base := snapshot()
	return func() {
		t.Helper()
		deadline := time.Now().Add(pollDeadline)
		for {
			leaked := leaks(base)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("leakcheck: %d goroutine(s) created by %s/... still running:\n\n%s",
					len(leaked), modulePrefix, strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// leaks returns the stacks of this module's goroutines that are alive now
// but were not alive when base was taken.
func leaks(base map[string]string) []string {
	var out []string
	for id, stack := range snapshot() {
		if _, ok := base[id]; ok || !createdByModule(stack) {
			continue
		}
		out = append(out, stack)
	}
	sort.Strings(out)
	return out
}

// snapshot captures every live goroutine's stack record keyed by its ID.
func snapshot() map[string]string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	out := make(map[string]string)
	for _, rec := range strings.Split(strings.TrimSpace(string(buf[:n])), "\n\n") {
		out[goroutineID(rec)] = rec
	}
	return out
}

// goroutineID extracts the numeric ID from a stack record's
// "goroutine N [state]:" header. IDs are process-unique and never reused,
// so they identify a goroutine across snapshots.
func goroutineID(rec string) string {
	rest := strings.TrimPrefix(rec, "goroutine ")
	if i := strings.IndexByte(rest, ' '); i > 0 {
		return rest[:i]
	}
	return rec
}

// createdByModule reports whether the goroutine was started by one of
// this module's functions. The root goroutine and goroutines spawned by
// the runtime, testing harness (t.Parallel() runners are "created by
// testing.(*T).Run") or other dependencies have no such frame and are
// never this package's business.
func createdByModule(stack string) bool {
	i := strings.LastIndex(stack, "created by ")
	if i < 0 {
		return false
	}
	fn := stack[i+len("created by "):]
	if j := strings.IndexAny(fn, " \n"); j >= 0 {
		fn = fn[:j]
	}
	return fn == modulePrefix ||
		strings.HasPrefix(fn, modulePrefix+".") ||
		strings.HasPrefix(fn, modulePrefix+"/")
}
