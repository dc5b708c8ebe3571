"""Run every workload over several seeds in two sets, compare them, write a baseline.

    python3 perfbench/baseline.py [--runs 10] [--seconds N] [--output perfbench/baseline.json]

It makes two sets of runs of the same code.  Each set runs every workload in
``BENCHMARK.json`` once per seed with tracing off (set 1 uses seeds 1..runs,
set 2 the next ``runs`` seeds), then once with tracing on and seed 1 in
every set, so that the traced runs' count metrics must repeat.  For each set it
prints each end-to-end metric's median, quartiles and spread, (Q3 - Q1) /
median with the quartiles of ``statistics.quantiles(values, n=4)``, next to
the metric's bound, then ``error_rate`` and the traced run's per-layer
metrics, all by name with their units.  After the second set it prints, per
workload and metric, how far its median lies from the first set's, and
whether every count metric of the traced runs repeated exactly.  The numbers
and the machine record of the first run go to the output file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_SEED = 1


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d: %s"
                         % (workload, seed, proc.returncode, proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("machine: "))
    return machine, json.loads(lines[-1])


def run_set(bench, first_seed, runs, seconds, bounds):
    out = {}
    machine = None
    for w in bench["workloads"]:
        name = w["name"]
        values, units = {}, {}
        attempted = failed = 0
        seeds = list(range(first_seed, first_seed + runs))
        for seed in seeds:
            machine_, result = run_once(name, seed, seconds, 0)
            machine = machine or machine_
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        summary = {}
        print("== %s (%d runs, seeds %d..%d)" % (name, runs, seeds[0], seeds[-1]))
        for metric, vals in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[metric] = {
                "unit": units[metric], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[metric], "values": vals,
            }
            print("%-28s median %12.4f %-5s  q1 %10.4f  q3 %10.4f  spread %.4f  bound %.2f"
                  % (metric, med, units[metric], q1, q3, spread, bounds[metric]))
        print("%-28s %d failed of %d commands" % ("error_rate", failed, attempted))
        _, traced = run_once(name, TRACE_SEED, seconds, 1)
        print("-- traced run, seed %d" % TRACE_SEED)
        for metric, m in sorted(traced["metrics"].items()):
            print("%-28s %16.6f %s" % (metric, m["value"], m["unit"]))
        sys.stdout.flush()
        out[name] = {
            "seeds": seeds,
            "end_to_end": summary,
            "error_rate": {"failed": failed, "attempted": attempted},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_units": {k: v["unit"] for k, v in traced["metrics"].items()},
        }
    return machine, out


def compare(sets, bounds):
    """Each set's median against the first set's, and exact repeats of counts."""
    out = {}
    print("== comparison of %d sets" % len(sets))
    for name, first in sets[0].items():
        drift = {}
        for metric, summary in first["end_to_end"].items():
            base = summary["median"]
            drift[metric] = [s[name]["end_to_end"][metric]["median"] / base - 1 for s in sets[1:]]
            print("%-16s %-14s median drift %s  bound %.2f" % (
                name, metric, " ".join("%+.4f" % d for d in drift[metric]), bounds[metric]))
        counts = [k for k, u in first["per_layer_units"].items() if u == "count"]
        repeat = all(s[name]["per_layer"][k] == first["per_layer"][k] for s in sets for k in counts)
        print("%-16s count metrics repeat exactly: %s" % (name, repeat))
        out[name] = {"median_drift": drift, "counts_repeat_exactly": repeat}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--output", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    machine, sets = None, []
    for k in range(2):
        print("#### set %d" % (k + 1))
        machine_, results = run_set(bench, 1 + k * args.runs, args.runs, seconds, bounds)
        machine = machine or machine_
        sets.append(results)
    out = {
        "run_seconds": seconds, "runs": args.runs, "machine": machine,
        "sets": sets, "comparison": compare(sets, bounds),
    }
    with open(args.output, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
