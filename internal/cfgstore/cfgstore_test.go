package cfgstore

import (
	"fmt"
	"sync"
	"testing"
)

func TestRegisterActivateEpoch(t *testing.T) {
	s := New()
	if s.Epoch() != 0 {
		t.Fatalf("fresh store epoch %d, want 0", s.Epoch())
	}
	e, err := s.Register(ClassBinding, "binding:edi", 1, "seed")
	if err != nil || e != 1 {
		t.Fatalf("register v1: epoch %d err %v", e, err)
	}
	e, err = s.Register(ClassBinding, "binding:edi", 2, "swap")
	if err != nil || e != 2 {
		t.Fatalf("register v2: epoch %d err %v", e, err)
	}
	if v, ok := s.Active(ClassBinding, "binding:edi"); !ok || v != 2 {
		t.Fatalf("active %d %v, want 2 true", v, ok)
	}
	// Rollback to v1.
	e, err = s.Activate(ClassBinding, "binding:edi", 1, "rollback")
	if err != nil || e != 3 {
		t.Fatalf("activate v1: epoch %d err %v", e, err)
	}
	if v, _ := s.Active(ClassBinding, "binding:edi"); v != 1 {
		t.Fatalf("active %d after rollback, want 1", v)
	}
	if n := s.LiveVersions(); n != 2 {
		t.Fatalf("live versions %d, want 2", n)
	}
	if h := s.History(ClassBinding, "binding:edi"); len(h) != 2 || h[0].Version != 1 || h[1].Version != 2 {
		t.Fatalf("history %+v", h)
	}
}

func TestImmutabilityAndErrors(t *testing.T) {
	s := New()
	if _, err := s.Register(ClassRules, "approval", 1, ""); err != nil {
		t.Fatal(err)
	}
	// Re-registering an existing or lower version is rejected: versions are
	// immutable.
	if _, err := s.Register(ClassRules, "approval", 1, ""); err == nil {
		t.Fatal("re-register v1 succeeded")
	}
	if _, err := s.Register(ClassRules, "approval", 0, ""); err == nil {
		t.Fatal("register v0 succeeded")
	}
	// Activating an unregistered version is rejected: rollback can only
	// land on config that existed.
	if _, err := s.Activate(ClassRules, "approval", 9, ""); err == nil {
		t.Fatal("activate unknown version succeeded")
	}
	if _, err := s.Activate(ClassRules, "nope", 1, ""); err == nil {
		t.Fatal("activate unknown artifact succeeded")
	}
	if s.Epoch() != 1 {
		t.Fatalf("failed calls moved the epoch to %d", s.Epoch())
	}
}

func TestStageKeepsIncumbentActive(t *testing.T) {
	s := New()
	if _, err := s.Register(ClassBinding, "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}
	e, err := s.Stage(ClassBinding, "b", 2, "canary")
	if err != nil || e != 2 {
		t.Fatalf("stage: epoch %d err %v", e, err)
	}
	if v, _ := s.Active(ClassBinding, "b"); v != 1 {
		t.Fatalf("staging moved the active pointer to %d", v)
	}
	sn := s.Snapshot()
	if sn.Version(ClassBinding, "b") != 1 {
		t.Fatalf("snapshot sees staged version %d", sn.Version(ClassBinding, "b"))
	}
	// A first Stage with no prior version still activates (nothing to
	// protect).
	if _, err := s.Stage(ClassTransform, "t", 1, ""); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Active(ClassTransform, "t"); v != 1 {
		t.Fatalf("first staged version not active: %d", v)
	}
}

func TestSnapshotIsAtomicUnderConcurrentSwaps(t *testing.T) {
	s := New()
	// Two artifacts always swapped together: a snapshot must never see one
	// moved and not the other at a given epoch parity.
	if _, err := s.Register(ClassBinding, "a", 1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(ClassBinding, "b", 1, ""); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 2; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Register(ClassBinding, "a", v, ""); err != nil {
				panic(err)
			}
			if _, err := s.Register(ClassBinding, "b", v, ""); err != nil {
				panic(err)
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		sn := s.Snapshot()
		va, vb := sn.Version(ClassBinding, "a"), sn.Version(ClassBinding, "b")
		if vb > va {
			// a is always bumped first; seeing b ahead of a would mean the
			// snapshot tore across the two writes' lock sections.
			t.Errorf("snapshot tore: a=%d b=%d", va, vb)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestCloneIsIndependent: registrations and activations on a clone reach
// neither the original store nor a snapshot taken of it, and the clone
// keeps the original's history, epoch and active versions.
func TestCloneIsIndependent(t *testing.T) {
	s := New()
	if _, err := s.Register(ClassBinding, "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(ClassBinding, "b", 2, "swap"); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	c := s.Clone()
	if c.Epoch() != s.Epoch() || len(c.History(ClassBinding, "b")) != 2 {
		t.Fatalf("clone epoch %d history %v, want %d and two versions", c.Epoch(), c.History(ClassBinding, "b"), s.Epoch())
	}
	if _, err := c.Register(ClassBinding, "b", 3, "swap"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Activate(ClassBinding, "b", 1, "rollback"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ClassRules, "r", 1, "new"); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 || len(s.History(ClassBinding, "b")) != 2 || s.Artifacts() != 1 {
		t.Fatalf("original changed: epoch %d, history %v, %d artifacts", s.Epoch(), s.History(ClassBinding, "b"), s.Artifacts())
	}
	if v, _ := s.Active(ClassBinding, "b"); v != 2 || before.Version(ClassBinding, "b") != 2 {
		t.Fatalf("original active v%d, snapshot v%d; want v2", v, before.Version(ClassBinding, "b"))
	}
	if v, _ := c.Active(ClassBinding, "b"); v != 1 || c.Epoch() != 5 {
		t.Fatalf("clone active v%d at epoch %d, want v1 at 5", v, c.Epoch())
	}
	// Both histories grow on their own from the shared prefix.
	if _, err := s.Register(ClassBinding, "b", 3, "other"); err != nil {
		t.Fatal(err)
	}
	if got := c.History(ClassBinding, "b")[2].Note; got != "swap" {
		t.Fatalf("clone's v3 note %q after the original registered its own v3", got)
	}
}

func TestCanaryRouteDeterministicFraction(t *testing.T) {
	c, err := NewCanary("TP1", ClassBinding, "binding:edi", 1, 2, 0.3, CanaryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	n, cand := 20000, 0
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("po-%06d", i)
		first := c.RouteCandidate(id)
		if first != c.RouteCandidate(id) {
			t.Fatalf("routing of %q not deterministic", id)
		}
		if first {
			cand++
		}
	}
	got := float64(cand) / float64(n)
	if got < 0.25 || got > 0.35 {
		t.Fatalf("candidate fraction %.3f, want ~0.30", got)
	}
	full, err := NewCanary("TP1", ClassBinding, "b", 1, 2, 1.0, CanaryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.RouteCandidate("anything") {
		t.Fatal("fraction 1.0 did not route to candidate")
	}
}

func TestCanaryVerdicts(t *testing.T) {
	policy := CanaryPolicy{MinSamples: 4, Margin: 0.1}

	// Broken candidate vs healthy incumbent: rollback, decided once.
	c, err := NewCanary("TP1", ClassBinding, "b", 1, 2, 0.5, policy)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Record(false, false) // incumbent ok
	}
	decisions := 0
	for i := 0; i < 6; i++ {
		if v, decided := c.Record(true, true); decided {
			decisions++
			if v != CanaryRollback {
				t.Fatalf("verdict %s, want rollback", v)
			}
		}
	}
	if decisions != 1 {
		t.Fatalf("decided %d times, want exactly once", decisions)
	}
	if c.Verdict() != CanaryRollback {
		t.Fatalf("settled verdict %s", c.Verdict())
	}

	// Healthy candidate: promote.
	c2, _ := NewCanary("TP1", ClassBinding, "b", 1, 2, 0.5, policy)
	for i := 0; i < 4; i++ {
		c2.Record(false, false)
	}
	var last CanaryVerdict
	for i := 0; i < 4; i++ {
		last, _ = c2.Record(true, false)
	}
	if last != CanaryPromote {
		t.Fatalf("verdict %s, want promote", last)
	}

	// Both arms equally broken (global fault): relative comparison does not
	// blame the candidate.
	c3, _ := NewCanary("TP1", ClassBinding, "b", 1, 2, 0.5, policy)
	for i := 0; i < 4; i++ {
		c3.Record(false, true)
	}
	for i := 0; i < 4; i++ {
		last, _ = c3.Record(true, true)
	}
	if last != CanaryPromote {
		t.Fatalf("verdict %s under symmetric faults, want promote", last)
	}

	// Validation.
	if _, err := NewCanary("TP1", ClassBinding, "b", 1, 1, 0.5, policy); err == nil {
		t.Fatal("candidate == incumbent accepted")
	}
	if _, err := NewCanary("TP1", ClassBinding, "b", 1, 2, 0, policy); err == nil {
		t.Fatal("fraction 0 accepted")
	}
	if _, err := NewCanary("", ClassBinding, "b", 1, 2, 0.5, policy); err == nil {
		t.Fatal("empty partner accepted")
	}
}
