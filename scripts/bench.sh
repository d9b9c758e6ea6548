#!/bin/sh
# Run the concurrent-hub throughput benchmarks and record the result as
# BENCH_hub.json: exchanges/sec for 1, 4 and 8 hub workers over the
# in-process transport with simulated wire latency, plus the 8-vs-1
# speedup, plus the faulty-backend variant (8 workers, 10% injected
# backend errors absorbed by the retry layer), plus the sharded-scheduler
# sweep (BenchmarkHubSharded: shards x workers-per-shard over the
# in-process DoAsync API, clean and faulty), plus the circuit-breaker
# outage drill (BenchmarkHubBreaker: healthy-partner throughput while one
# backend is hard down, breaker off vs on), plus the write-ahead-journal
# overhead sweep (BenchmarkHubJournal: fsync=never/batched/always vs the
# unjournaled baseline, plus the fsync=seam row — the batched configuration
# with journal I/O routed through a pass-through fault-injection FS, pricing
# the storage seam), plus the compiled-plan section (BenchmarkHubPlanned:
# a bare-engine interpreter row where interpretation dominates, recorded as
# instances/s, and the wide fan-out at step parallelism 1 vs 8).
# Acceptance bars: speedup >= 2 on the clean worker-pool benchmark, the
# clean shards=8 row >= 1.5x the workers=8 row, breaker-on >= 2x breaker-off
# healthy throughput, journaled fsync=batched throughput >= 0.4x the
# unjournaled baseline, journal fsync=seam >= 0.95x fsync=batched (the
# fault-injection seam must stay free when no fault is armed), wide
# parallelism=8 > 1.0x parallelism=1, the live-canary section
# (BenchmarkHubCanary: an active never-settling canary on one partner's
# binding vs no canary) canary=on >= 0.9x canary=off — the route hash and
# outcome record must stay off the hot path — and the wire section
# (BenchmarkHubWire: the daemon front door over a real TCP loopback socket
# vs the identically configured in-process DoAsync baseline) wire >= 0.5x
# inproc — framing, the socket round trip and response correlation may cost
# at most half the clean throughput — and the federation section
# (BenchmarkHubForward: every submit relayed through a non-owner cluster
# node to the partner's owner over a second TCP hop vs the owner's
# in-process DoAsync baseline) forward >= 0.4x inproc — partner-affinity
# routing may cost at most 60% of local throughput.
set -eu
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_hub.json}"
COUNT="${BENCH_COUNT:-50x}"
SHARD_COUNT="${BENCH_SHARD_COUNT:-400x}"

echo "== BenchmarkHubParallel (benchtime $COUNT) =="
go test -run '^$' -bench '^BenchmarkHubParallel$' -benchtime "$COUNT" . | tee /tmp/bench_hub.txt

echo "== BenchmarkHubParallelFaulty (benchtime ${BENCH_FAULTY_COUNT:-200x}) =="
go test -run '^$' -bench '^BenchmarkHubParallelFaulty$' -benchtime "${BENCH_FAULTY_COUNT:-200x}" . | tee /tmp/bench_hub_faulty.txt

echo "== BenchmarkHubSharded (benchtime $SHARD_COUNT) =="
go test -run '^$' -bench '^BenchmarkHubSharded$' -benchtime "$SHARD_COUNT" . | tee /tmp/bench_hub_sharded.txt

echo "== BenchmarkHubBreaker (benchtime ${BENCH_BREAKER_COUNT:-300x}) =="
go test -run '^$' -bench '^BenchmarkHubBreaker$' -benchtime "${BENCH_BREAKER_COUNT:-300x}" . | tee /tmp/bench_hub_breaker.txt

echo "== BenchmarkHubJournal (benchtime ${BENCH_JOURNAL_COUNT:-400x}) =="
go test -run '^$' -bench '^BenchmarkHubJournal$' -benchtime "${BENCH_JOURNAL_COUNT:-400x}" . | tee /tmp/bench_hub_journal.txt

echo "== BenchmarkHubPlanned (benchtime $SHARD_COUNT) =="
go test -run '^$' -bench '^BenchmarkHubPlanned$' -benchtime "$SHARD_COUNT" . | tee /tmp/bench_hub_planned.txt

echo "== BenchmarkHubCanary (benchtime ${BENCH_CANARY_COUNT:-800x}) =="
go test -run '^$' -bench '^BenchmarkHubCanary$' -benchtime "${BENCH_CANARY_COUNT:-800x}" . | tee /tmp/bench_hub_canary.txt

echo "== BenchmarkHubWire (benchtime ${BENCH_WIRE_COUNT:-400x}) =="
go test -run '^$' -bench '^BenchmarkHubWire$' -benchtime "${BENCH_WIRE_COUNT:-400x}" . | tee /tmp/bench_hub_wire.txt

echo "== BenchmarkHubForward (benchtime ${BENCH_FORWARD_COUNT:-400x}) =="
go test -run '^$' -bench '^BenchmarkHubForward$' -benchtime "${BENCH_FORWARD_COUNT:-400x}" . | tee /tmp/bench_hub_forward.txt

python3 - "$OUT" <<'EOF'
import json, re, sys

results = {}
for line in open("/tmp/bench_hub.txt"):
    m = re.search(r"BenchmarkHubParallel/workers=(\d+)\S*\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) exchanges/s", line)
    if m:
        results[int(m.group(1))] = {
            "ns_per_op": float(m.group(2)),
            "exchanges_per_sec": float(m.group(3)),
        }

if 1 not in results or 8 not in results:
    sys.exit("bench.sh: missing workers=1 or workers=8 result")

faulty = None
for line in open("/tmp/bench_hub_faulty.txt"):
    m = re.search(r"BenchmarkHubParallelFaulty\S*\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) exchanges/s\s+([\d.]+) retries/op", line)
    if m:
        faulty = {
            "ns_per_op": float(m.group(1)),
            "exchanges_per_sec": float(m.group(2)),
            "retries_per_exchange": float(m.group(3)),
            "workers": 8,
            "backend_error_rate": 0.10,
        }
if faulty is None:
    sys.exit("bench.sh: missing BenchmarkHubParallelFaulty result")

sharded = {}
for line in open("/tmp/bench_hub_sharded.txt"):
    m = re.search(
        r"BenchmarkHubSharded/(clean|faulty)/shards=(\d+)/workers=(\d+)\S*\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) exchanges/s(?:\s+([\d.]+) retries/op)?",
        line)
    if m:
        row = {
            "ns_per_op": float(m.group(4)),
            "exchanges_per_sec": float(m.group(5)),
        }
        if m.group(6):
            row["retries_per_exchange"] = float(m.group(6))
        sharded[f"{m.group(1)}/shards={m.group(2)}/workers={m.group(3)}"] = row

breaker = {}
for line in open("/tmp/bench_hub_breaker.txt"):
    m = re.search(
        r"BenchmarkHubBreaker/breaker=(off|on)\S*\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) healthy-exchanges/s",
        line)
    if m:
        breaker[m.group(1)] = {
            "ns_per_op": float(m.group(2)),
            "healthy_exchanges_per_sec": float(m.group(3)),
        }
if "off" not in breaker or "on" not in breaker:
    sys.exit("bench.sh: missing BenchmarkHubBreaker off/on results")

journal = {}
for line in open("/tmp/bench_hub_journal.txt"):
    m = re.search(
        r"BenchmarkHubJournal/fsync=(off|never|batched|always|seam)\S*\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) exchanges/s(?:\s+([\d.]+) fsyncs/op)?",
        line)
    if m:
        row = {
            "ns_per_op": float(m.group(2)),
            "exchanges_per_sec": float(m.group(3)),
        }
        if m.group(4):
            row["fsyncs_per_exchange"] = float(m.group(4))
        journal[m.group(1)] = row
if "off" not in journal or "batched" not in journal or "seam" not in journal:
    sys.exit("bench.sh: missing BenchmarkHubJournal off/batched/seam results")

planned = {}
for line in open("/tmp/bench_hub_planned.txt"):
    m = re.search(
        r"BenchmarkHubPlanned/(interp/mode=\w+|wide/parallelism=\d+)\S*\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) instances/s",
        line)
    if m:
        planned[m.group(1)] = {
            "ns_per_op": float(m.group(2)),
            "instances_per_sec": float(m.group(3)),
        }
interp_plan = planned.get("interp/mode=plan", {}).get("instances_per_sec")
wide1 = planned.get("wide/parallelism=1", {}).get("instances_per_sec")
wide8 = planned.get("wide/parallelism=8", {}).get("instances_per_sec")
if interp_plan is None or wide1 is None or wide8 is None:
    sys.exit("bench.sh: missing BenchmarkHubPlanned interp/wide results")

canary = {}
for line in open("/tmp/bench_hub_canary.txt"):
    m = re.search(
        r"BenchmarkHubCanary/canary=(off|on)\S*\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) exchanges/s",
        line)
    if m:
        canary[m.group(1)] = {
            "ns_per_op": float(m.group(2)),
            "exchanges_per_sec": float(m.group(3)),
        }
if "off" not in canary or "on" not in canary:
    sys.exit("bench.sh: missing BenchmarkHubCanary off/on results")

wire = {}
for line in open("/tmp/bench_hub_wire.txt"):
    m = re.search(
        r"BenchmarkHubWire/(inproc|wire)/shards=(\d+)/workers=(\d+)\S*\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) exchanges/s",
        line)
    if m:
        wire[m.group(1)] = {
            "ns_per_op": float(m.group(4)),
            "exchanges_per_sec": float(m.group(5)),
        }
if "inproc" not in wire or "wire" not in wire:
    sys.exit("bench.sh: missing BenchmarkHubWire inproc/wire results")

forward = {}
for line in open("/tmp/bench_hub_forward.txt"):
    m = re.search(
        r"BenchmarkHubForward/(inproc|forward)/shards=(\d+)/workers=(\d+)\S*\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) exchanges/s",
        line)
    if m:
        forward[m.group(1)] = {
            "ns_per_op": float(m.group(4)),
            "exchanges_per_sec": float(m.group(5)),
        }
if "inproc" not in forward or "forward" not in forward:
    sys.exit("bench.sh: missing BenchmarkHubForward inproc/forward results")

best_clean8 = max(
    (row["exchanges_per_sec"] for key, row in sharded.items()
     if key.startswith("clean/shards=8/")),
    default=None)
if best_clean8 is None:
    sys.exit("bench.sh: missing BenchmarkHubSharded clean shards=8 result")

speedup = results[8]["exchanges_per_sec"] / results[1]["exchanges_per_sec"]
sharded_speedup = best_clean8 / results[8]["exchanges_per_sec"]
breaker_speedup = (breaker["on"]["healthy_exchanges_per_sec"]
                   / breaker["off"]["healthy_exchanges_per_sec"])
journal_ratio = (journal["batched"]["exchanges_per_sec"]
                 / journal["off"]["exchanges_per_sec"])
seam_ratio = (journal["seam"]["exchanges_per_sec"]
              / journal["batched"]["exchanges_per_sec"])
wide_speedup = wide8 / wide1
canary_ratio = (canary["on"]["exchanges_per_sec"]
                / canary["off"]["exchanges_per_sec"])
wire_ratio = (wire["wire"]["exchanges_per_sec"]
              / wire["inproc"]["exchanges_per_sec"])
forward_ratio = (forward["forward"]["exchanges_per_sec"]
                 / forward["inproc"]["exchanges_per_sec"])
record = {
    "benchmark": "BenchmarkHubParallel",
    "transport": "in-proc, 2ms simulated wire latency",
    "workers": {str(w): results[w] for w in sorted(results)},
    "speedup_8_vs_1": round(speedup, 2),
    "passes_2x": speedup >= 2.0,
    "faulty": faulty,
    "sharded": {
        "benchmark": "BenchmarkHubSharded",
        "transport": "in-process DoAsync (no wire), partner-sharded scheduler",
        "rows": sharded,
        "clean_shards8_vs_workers8": round(sharded_speedup, 2),
        "passes_1_5x": sharded_speedup >= 1.5,
    },
    "breaker": {
        "benchmark": "BenchmarkHubBreaker",
        "scenario": "one partner backend hard down (100% errors), "
                    "healthy throughput with breaker off vs on",
        "rows": breaker,
        "on_vs_off": round(breaker_speedup, 2),
        "passes_2x": breaker_speedup >= 2.0,
    },
    "journal": {
        "benchmark": "BenchmarkHubJournal",
        "scenario": "write-ahead exchange journal at each fsync policy "
                    "vs the unjournaled baseline (off)",
        "rows": journal,
        "batched_vs_off": round(journal_ratio, 2),
        "passes_0_4x": journal_ratio >= 0.4,
        "seam_vs_batched": round(seam_ratio, 2),
        "passes_seam_0_95x": seam_ratio >= 0.95,
    },
    "planned": {
        "benchmark": "BenchmarkHubPlanned",
        "scenario": "bare-engine compiled-plan interpreter on a 40-step "
                    "conditional chain, plus an 8-wide fan-out at step "
                    "parallelism 1 vs 8 over ~200us ports",
        "rows": planned,
        "wide_parallel_speedup": round(wide_speedup, 2),
        "passes_parallel_gt_1x": wide_speedup > 1.0,
    },
    "canary": {
        "benchmark": "BenchmarkHubCanary",
        "scenario": "active never-settling canary (fraction 0.25) on one "
                    "partner's binding vs no canary, sharded DoAsync",
        "rows": canary,
        "on_vs_off": round(canary_ratio, 2),
        "passes_0_9x": canary_ratio >= 0.9,
    },
    "wire": {
        "benchmark": "BenchmarkHubWire",
        "scenario": "daemon front door over TCP loopback (4 clients x 8 "
                    "pipelined submits, length-prefixed JSON frames) vs the "
                    "identically configured in-process DoAsync baseline",
        "rows": wire,
        "wire_vs_inproc": round(wire_ratio, 2),
        "passes_0_5x": wire_ratio >= 0.5,
    },
    "forward": {
        "benchmark": "BenchmarkHubForward",
        "scenario": "two-node federation: every submit relayed through the "
                    "non-owner's front door to the partner's owner (two TCP "
                    "hops, 4 clients x 8 pipelined submits) vs the owner's "
                    "in-process DoAsync baseline",
        "rows": forward,
        "forward_vs_inproc": round(forward_ratio, 2),
        "passes_0_4x": forward_ratio >= 0.4,
    },
}
with open(sys.argv[1], "w") as f:
    json.dump(record, f, indent=2)
    f.write("\n")
print(f"\nwrote {sys.argv[1]}: speedup 8 vs 1 = {speedup:.2f}x "
      f"({'PASS' if speedup >= 2.0 else 'FAIL'} >= 2x); "
      f"faulty 8w @10% err = {faulty['exchanges_per_sec']:.0f} exchanges/s, "
      f"{faulty['retries_per_exchange']:.2f} retries/exchange; "
      f"sharded clean 8-shard = {best_clean8:.0f} exchanges/s "
      f"({sharded_speedup:.2f}x workers=8, "
      f"{'PASS' if sharded_speedup >= 1.5 else 'FAIL'} >= 1.5x); "
      f"breaker on vs off = {breaker_speedup:.2f}x "
      f"({'PASS' if breaker_speedup >= 2.0 else 'FAIL'} >= 2x); "
      f"journal batched vs off = {journal_ratio:.2f}x "
      f"({'PASS' if journal_ratio >= 0.4 else 'FAIL'} >= 0.4x); "
      f"journal seam vs batched = {seam_ratio:.2f}x "
      f"({'PASS' if seam_ratio >= 0.95 else 'FAIL'} >= 0.95x); "
      f"interp plan = {interp_plan:.0f} instances/s; "
      f"wide parallelism 8 vs 1 = {wide_speedup:.2f}x "
      f"({'PASS' if wide_speedup > 1.0 else 'FAIL'} > 1x); "
      f"canary on vs off = {canary_ratio:.2f}x "
      f"({'PASS' if canary_ratio >= 0.9 else 'FAIL'} >= 0.9x); "
      f"wire vs inproc = {wire_ratio:.2f}x "
      f"({'PASS' if wire_ratio >= 0.5 else 'FAIL'} >= 0.5x); "
      f"forward vs inproc = {forward_ratio:.2f}x "
      f"({'PASS' if forward_ratio >= 0.4 else 'FAIL'} >= 0.4x)")
if (speedup < 2.0 or sharded_speedup < 1.5 or breaker_speedup < 2.0
        or journal_ratio < 0.4 or seam_ratio < 0.95
        or wide_speedup <= 1.0 or canary_ratio < 0.9
        or wire_ratio < 0.5 or forward_ratio < 0.4):
    sys.exit(1)
EOF
