package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostStamp names the machine and toolchain a result was measured on.
func hostStamp() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// childEnv is set to 1 in a process this command starts (set-up timing, a
// repetition, or the untraced reference of a traced run); the self-test's
// TestMain uses it to run the command instead of the tests.
const childEnv = "HUBBENCH_CHILD"

// runChild runs this executable with cfg's flags plus extra, waits for it
// to end and returns the last line of its standard output.
func runChild(cfg config, trace bool, extra ...string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, append([]string{
		"--workload", cfg.Workload,
		"--seed", strconv.FormatInt(cfg.Seed, 10),
		"--seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"--trace", traceArg,
		"--out", cfg.OutDir,
		"--work", cfg.WorkDir,
	}, extra...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%v: %w", cmd.Args, err)
	}
	out := strings.TrimSpace(stdout.String())
	return out[strings.LastIndexByte(out, '\n')+1:], nil
}

// childSetups times set-ups in a fresh process (setupOnly) and returns
// the kept times in seconds.
func childSetups(cfg config) ([]float64, error) {
	line, err := runChild(cfg, false, "--setups-only")
	if err != nil {
		return nil, err
	}
	var times []float64
	if err := json.Unmarshal([]byte(line), &times); err != nil {
		return nil, fmt.Errorf("parse set-up times: %w", err)
	}
	return times, nil
}

// childRep runs repetition rep of cfg's run in a fresh process (runRep).
func childRep(cfg config, rep int) (*repResult, error) {
	line, err := runChild(cfg, cfg.Trace, "--rep", strconv.Itoa(rep))
	if err != nil {
		return nil, err
	}
	var r repResult
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return nil, fmt.Errorf("parse repetition result: %w", err)
	}
	return &r, nil
}

// childReference runs the untraced reference of a traced run in fresh
// processes and returns its cpu_us_per_ex.
func childReference(cfg config) (float64, error) {
	line, err := runChild(cfg, false)
	if err != nil {
		return 0, err
	}
	var rep report
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return 0, fmt.Errorf("parse reference result: %w", err)
	}
	m, ok := rep.Metrics["cpu_us_per_ex"]
	if !rep.Correct || !ok {
		return 0, fmt.Errorf("reference run failed its checks")
	}
	return m.Value, nil
}

// writeResults keeps a traced run's stamp, notes and metrics next to its
// profiles.
func writeResults(cfg config, out *runOutput) error {
	b, err := json.MarshalIndent(struct {
		Lines  []string `json:"lines"`
		Result report   `json:"result"`
	}{out.lines, out.report}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(resultDir(cfg), "result.json"), append(b, '\n'), 0o644)
}
