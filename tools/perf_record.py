#!/usr/bin/env python3
"""Record perfbench's end-to-end numbers as BENCH_perfbench.json.

    python3 tools/perf_record.py

For every workload in BENCHMARK.json this runs, unchanged and once per
seed 1-5,

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T = BENCHMARK.json's run_seconds, and writes BENCH_perfbench.json at
the repo root: for each workload and end-to-end metric the median, the
first and third quartiles (inclusive method) and n, the number of runs
that reported it; for each run its seed, correct, attempted and failed;
and the host block run.py prints. A run with "correct": false is kept in
the runs list and counted in incorrect_runs; it reports no metric values,
so n counts the correct runs. `attempted` depends on how many rounds fit
in T seconds, so it is recorded per run. Takes ~7 minutes on 4 cores.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
PER_RUN_HOST_KEYS = ("seed", "workload")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # run.py exits 1 on a failed check but still prints its report; only
    # a run that prints no report (a build failure) stops the recording.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if len(lines) < 2:
        raise SystemExit(f"perf_record: no report from {' '.join(cmd)} "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-2])["host"], json.loads(lines[-1])


def summarize(values):
    values = sorted(values)
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values) if values else None,
            "q1": q1, "q3": q3, "n": len(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    host = None
    workloads = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        runs, values = [], {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            run_host, result = run_once(name, seed, seconds)
            if host is None:
                host = {k: v for k, v in run_host.items()
                        if k not in PER_RUN_HOST_KEYS}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"]})
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            print(f"perf_record: {name} seed {seed}: correct="
                  f"{result['correct']}", file=sys.stderr, flush=True)
        workloads[name] = {
            "runs": runs,
            "incorrect_runs": sum(not r["correct"] for r in runs),
            "metrics": {m["name"]: {"unit": m["unit"],
                                    **summarize(values[m["name"]])}
                        for m in spec["end_to_end"]},
        }
    doc = {"bench": "perfbench",
           "command": "python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds} --trace 0",
           "seeds": list(SEEDS), "host": host, "workloads": workloads}
    (ROOT / "BENCH_perfbench.json").write_text(json.dumps(doc, indent=1) +
                                               "\n")
    print("wrote BENCH_perfbench.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
