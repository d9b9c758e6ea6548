// Command hubbench is the hub's benchmark. One run drives one named
// workload against freshly built hubs and prints one JSON result line:
//
//	hubbench --workload inproc-uniform --seed 1 --seconds 10 --trace 0
//
// Every run runs its repetitions, each in a fresh process: generate the
// repetition's inputs from the seed, set a fresh system up, warm up, run
// an open-loop phase at the workload's fixed rate and a closed-loop
// capacity phase, and check the outputs (the correctness gate). Between
// them an untraced run times set-ups without load in fresh processes
// (setup_s is the median). With --trace 0 it reports the end-to-end
// metrics; with --trace 1 it attaches the tracing seams (bus sink, backend
// wrapper, journal FS wrapper), profiles the open-loop phase, replays the
// run's documents through each layer and reports the per-layer metrics,
// writing profiles and spans under --out.
//
// The last line of standard output is the JSON result; the lines before it
// stamp the host and the run and list every metric by name and unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hubbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.Workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "nominal measured seconds; sizes every phase's fixed exchange count")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&cfg.OutDir, "out", ".bench_build/results", "directory for traced-run profiles, spans and results")
	fs.StringVar(&cfg.WorkDir, "work", ".bench_build/work", "directory for journals and other run-time files")
	fs.IntVar(&cfg.Rep, "rep", -1, "run only this repetition and print its result (the command starts these processes itself)")
	fs.BoolVar(&cfg.SetupsOnly, "setups-only", false, "only time set-ups and print their times (the command starts these processes itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "hubbench: --trace must be 0 or 1")
		return 2
	}
	cfg.Trace = *trace == 1

	if cfg.SetupsOnly || cfg.Rep >= 0 {
		var res any
		var err error
		if cfg.SetupsOnly {
			res, err = setupOnly(cfg)
		} else {
			res, err = runRep(cfg)
		}
		if err == nil {
			err = json.NewEncoder(stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(stderr, "hubbench:", err)
			return 1
		}
		return 0
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "hubbench:", err)
		return 1
	}
	for _, l := range res.lines {
		fmt.Fprintln(stdout, l)
	}
	names := make([]string, 0, len(res.report.Metrics))
	for n := range res.report.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.report.Metrics[n]
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(stderr, "hubbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.report.Correct {
		return 1
	}
	return 0
}
