"""Checks that the benchmark's own gates can fail.

    python3 perfbench/selftest.py

* A corrupted reference answer (one fusion entry, one block count) makes
  exactly that command count in ``error_rate``; the intact reference passes.
* The traced run's answers equal the untraced run's, a differing answer
  trips the self-check, and count metrics repeat exactly between two traced
  rounds.
* A stretch of wall time probed at half the reference speed counts half.
* In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.

Takes about half a minute; exits non-zero on the first check that fails.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402
import run  # noqa: E402

TABLE = "table --family tensor-taft --mode crosscheck --n 3"
BLOCKS = "verify blocks --family hpq --p 1 --n 3"
SMALL = ("verify cor3.4 --n 3", "verify prop4.1 --n 3", BLOCKS)


def commands(keys):
    by_key = {
        run.command_key(c["argv"]): c for w in run.WORKLOADS.values() for c in w["commands"]
    }
    return {"commands": [by_key[k] for k in keys]}


def check(cond, message):
    if not cond:
        raise SystemExit("FAIL: " + message)
    print("ok   " + message)


def corrupted_reference_counts(references):
    workload = commands((TABLE,) + SMALL)
    intact = run.run_round(workload, 5, False, references)
    check(intact["failed"] == 0, "intact reference: no command fails")

    bad = copy.deepcopy(references)
    entry = bad[TABLE]["reports"][0]["entries"][0]["result"][0]
    entry["mult"] += 1
    bad[BLOCKS]["reports"][0]["block_count"] += 1
    corrupt = run.run_round(workload, 5, False, bad)
    failed = [run.command_key(r["argv"][:-2]) for r in corrupt["results"] if r["failure"]]
    check(failed == [TABLE, BLOCKS], "corrupted fusion entry and block count fail: %s" % failed)
    rate = corrupt["failed"] / len(corrupt["results"])
    check(rate == 0.5, "error_rate counts them: %.2f" % rate)


def traced_matches_untraced(references):
    workload = dict(commands(SMALL), nonzero=["cyclo.mul_calls"], zero=[])
    untraced = run.run_round(workload, 7, False, references)
    traced = run.run_round(workload, 7, True, references)
    again = run.run_round(workload, 7, True, references)
    metrics = run.layer_metrics(traced, untraced)
    run.self_check(workload, traced, untraced, metrics)
    check(True, "traced answers equal untraced answers")
    counts = {k for k, u in run.PER_LAYER_UNITS.items() if u == "count"}
    second = run.layer_metrics(again, untraced)
    check(
        all(metrics[k] == second[k] for k in counts),
        "count metrics repeat exactly between two traced rounds",
    )
    altered = copy.deepcopy(traced)
    altered["results"][0]["doc"]["reports"][0]["radical_dim"] += 1
    try:
        run.self_check(workload, altered, untraced, metrics)
    except run.SelfCheckError:
        check(True, "a traced answer that differs trips the self-check")
    else:
        check(False, "a traced answer that differs trips the self-check")


def reference_speed_scales():
    ref = hostspeed.REFERENCE_PROBE_S
    slow = hostspeed.reference_seconds(0.0, 10.0, [(1.0, 2 * ref), (9.0, 2 * ref)])
    check(abs(slow - (10.0 - 4 * ref) / 2) < 1e-12,
          "a stretch probed at half the reference speed counts half its own time")
    check(hostspeed.reference_seconds(0.0, 10.0, [(10.5, ref)]) is None,
          "a stretch without probes has no time at the reference speed")


def bare_directory_fails():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without sources: exit %d and no result" % proc.returncode)


def main():
    os.makedirs(run.WORK, exist_ok=True)
    with open(run.REFERENCE) as fh:
        references = json.load(fh)
    reference_speed_scales()
    corrupted_reference_counts(references)
    traced_matches_untraced(references)
    bare_directory_fails()


if __name__ == "__main__":
    main()
