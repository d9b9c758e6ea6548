package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// profileModule maps a cpu_share.<name> metric to the function-name
// prefixes whose flat CPU samples count toward it.
type profileModule struct {
	name     string
	prefixes []string
}

var profileModules = []profileModule{
	{"wf", []string{"repro/internal/wf."}},
	{"wfstore", []string{"repro/internal/wfstore."}},
	{"core", []string{"repro/internal/core."}},
	{"expr", []string{"repro/internal/expr."}},
	{"rules", []string{"repro/internal/rules."}},
	{"transform", []string{"repro/internal/transform."}},
	{"formats", []string{"repro/internal/formats.", "repro/internal/formats/"}},
	{"backend", []string{"repro/internal/backend."}},
	{"journal", []string{"repro/internal/journal."}},
	{"obs", []string{"repro/internal/obs."}},
	{"server", []string{"repro/internal/server."}},
	{"cluster", []string{"repro/internal/cluster."}},
	{"gc_malloc", []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.makemap",
		"runtime.newarray", "runtime.nextFreeFast", "runtime.memclrNoHeapPointers", "runtime.heapBits",
		"runtime.heapSetType", "runtime.typePointers", "runtime.(*mspan)", "runtime.(*mheap)", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*sweepLocked)", "runtime.(*sweepLocker)",
		"runtime.gc", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.scanframe",
		"runtime.greyobject", "runtime.markroot", "runtime.findObject", "runtime.spanOf", "runtime.sweepone",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.(*wbBuf)",
		"runtime.shade", "runtime.markBits", "runtime.pageIndexOf", "runtime.deductAssistCredit",
	}},
	{"json", []string{"encoding/json."}},
	{"syscall", []string{"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall."}},
}

// cpuShares reads CPU profiles, merged, with the toolchain's pprof and
// returns each module's share of the flat samples. The pprof listing is
// kept next to the profiles.
func cpuShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-symbolize=none"}, profiles...)
	cmd := exec.Command("go", args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errOut.String()))
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(profiles[0]), "cpu-top.txt"), out.Bytes(), 0o644); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		name := strings.Join(f[5:], " ")
		for _, mod := range profileModules {
			if hasAnyPrefix(name, mod.prefixes) {
				shares[mod.name] += pct / 100
				break
			}
		}
	}
	return shares, nil
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
