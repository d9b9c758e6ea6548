package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a traced run's untraced reference re-execute this test
// binary as the command itself.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and holds each run to the correctness gate and to the metric
// names and units BENCHMARK.json declares.
func TestWorkloadsTiny(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	dir := t.TempDir()
	skew := map[string]float64{}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				Workload: w.Name, Seed: 7, Seconds: 0.1, Trace: traced,
				OutDir: filepath.Join(dir, "out"), WorkDir: filepath.Join(dir, "work"),
			}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !out.report.Correct || out.report.Failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d\n%s", w.Name, traced, out.report.Correct, out.report.Failed, strings.Join(out.lines, "\n"))
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(out.report.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(out.report.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.report.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %s, BENCHMARK.json says %s", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced {
				continue
			}
			skew[w.Name] = out.report.Metrics["sched.shard_skew"].Value
			// The wire-only layers are measured on wire-durable and absent
			// (0) elsewhere.
			for _, name := range []string{"formats.decode_po_ns", "journal.appends_per_ex", "server.frame_bytes_per_ex", "cluster.forwarded_share"} {
				v := out.report.Metrics[name].Value
				if (w.Name == "wire-durable") != (v != 0) {
					t.Errorf("%s: %s = %v", w.Name, name, v)
				}
			}
		}
	}
	if skew["partners-skewed"] <= skew["inproc-uniform"] {
		t.Errorf("shard skew: partners-skewed %v, inproc-uniform %v", skew["partners-skewed"], skew["inproc-uniform"])
	}
}
