package wfstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/wf"
)

// The fsync policy must not change what the store persists — only how
// eagerly the OS is told to make it durable. Every policy must survive a
// close-and-reopen with identical contents.
func TestFileStoreFsyncPolicies(t *testing.T) {
	for _, policy := range []journal.FsyncPolicy{journal.FsyncAlways, journal.FsyncBatched, journal.FsyncNever} {
		t.Run(string(policy), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wf.log")
			s, err := OpenFileStore(path, journal.Options{Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			def := &wf.TypeDef{
				Name: "t", Version: 1,
				Steps: []wf.StepDef{{Name: "s1", Kind: wf.StepTask, Handler: "h"}},
			}
			if err := s.PutType(def); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				in := &wf.Instance{ID: fmt.Sprintf("i-%d", i), Type: "t", Version: 1, State: wf.InstRunning, Data: map[string]any{"n": i}}
				if err := s.PutInstance(in); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenFileStore(path, journal.Options{Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			ids, err := re.ListInstances()
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 10 {
				t.Fatalf("reopened store has %d instances, want 10", len(ids))
			}
			if !re.HasType("t", 1) {
				t.Fatal("reopened store lost the type")
			}
		})
	}
}
