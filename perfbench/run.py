"""Workload benchmark for hopfring.

    python3 perfbench/run.py --workload fusion-oracle --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout.  A workload is a fixed list of
``hopfring`` commands (see ``workloads.py``); each command runs in a fresh
interpreter through ``child.py``, one after another.  One round runs the
whole list once.

With ``--trace 0`` the benchmark first starts one untimed interpreter that
imports hopfring (so the first timed command does not pay for a cold file
cache), then runs the commands in their fixed order, round after round, for
``--seconds``: after the first whole round it starts a command only while
that command, at its median so far, is expected to be at least half done
when ``--seconds`` have passed.  Every command therefore has at least one
sample, most have several, the samples are spread over the whole run, and
the run ends within half a command of ``--seconds``.  It reports:

* ``total_s``: the workload's time at the reference speed (below), summed
  over its commands, each command timed from its launch to its exit and
  counted with the mean of its samples;
* ``setup_s``: the part of ``total_s`` before each command's first check,
  summed over the commands with the median of each command's samples
  (interpreter start, ``import hopfring``, the algebra builds and, for
  commands that use modules, the module catalog);
* ``peak_rss_mb``: the largest peak RSS of any command process, each
  command counted with the median of its samples.

The shared hosts this runs on change speed by a third or more for stretches
of seconds to minutes, and the guest's CPU time grows with its wall time, so
neither wall time nor CPU time alone tells a slower program from a slower
host.  Each command's process therefore times a fixed pure-Python loop
twenty times a second (``hostspeed.py``), and the benchmark reports each
stretch of wall time scaled by the speed of the loop measured inside it: the
time the command would have taken at the speed at which the loop takes
``hostspeed.REFERENCE_PROBE_S``.  The loop does none of the program's work,
so a slower program shows in these times just as in wall time.  The plain
wall times are printed beside them.

``error_rate`` is failed commands over attempted commands.  A command fails
if it exits non-zero, if any report is not ``status: pass``, or if its
answers differ from ``reference.json``; fields the reference does not have
are ignored.

With ``--trace 1`` it runs one untraced round and then one traced round
(``layers.py``), and reports the per-layer metrics summed over the traced
round's commands plus ``trace.overhead_s``, the traced round's time at the
reference speed minus the untraced one's.  The per-layer times are wall
times.  The traced answers must equal the untraced ones,
every metric the workload lists as ``nonzero`` must be non-zero and every
``zero`` metric zero, and set-up must only have built what the command
builds anyway; otherwise the benchmark stops with exit code 3.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric by name with its unit, and the machine the run was made on.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(ROOT, ".perfbench")
# Every run must end within 180 s; a command that would overrun this budget
# is killed and counted as failed.
RUN_BUDGET_S = 165

sys.path.insert(0, HERE)
from hostspeed import clock, reference_seconds  # noqa: E402
from layers import UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = dict(UNITS, **{"algebra.pair_memo_hit_ratio": "ratio", "trace.overhead_s": "s"})


class SelfCheckError(Exception):
    """The traced run contradicts what the benchmark claims to measure."""


def command_key(argv):
    return " ".join(argv)


def answers(doc):
    """The CLI document without the seed it echoes."""
    doc = json.loads(json.dumps(doc))
    doc.get("config", {}).pop("seed", None)
    return doc


def first_difference(ref, out, path="$"):
    """Path of the first reference value that ``out`` lacks or contradicts."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return path
        for key, value in ref.items():
            if key not in out:
                return "%s.%s (missing)" % (path, key)
            diff = first_difference(value, out[key], "%s.%s" % (path, key))
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return path
        for i, (r, o) in enumerate(zip(ref, out)):
            diff = first_difference(r, o, "%s[%d]" % (path, i))
            if diff:
                return diff
        return None
    return None if ref == out else path


def judge(rc, doc, reference):
    """Why a command failed, or None when it passed."""
    if rc != 0:
        return "exit code %s" % rc
    if doc is None:
        return "no JSON document on stdout"
    reports = doc.get("reports", [])
    if doc.get("status") != "pass" or any(r.get("status") != "pass" for r in reports):
        return "a report is not status: pass"
    if reference is None:
        return "no stored reference answer"
    diff = first_difference(reference, answers(doc))
    return "answer differs from the reference at %s" % diff if diff else None


def run_command(index, command, seed, trace, references, deadline=None):
    argv = command["argv"] + ["--seed", str(seed)]
    record_path = os.path.join(WORK, "%02d.record.json" % index)
    if os.path.exists(record_path):
        os.remove(record_path)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    launched = clock()
    timeout = None if deadline is None else max(1.0, deadline - launched)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, record_path, "1" if trace else "0",
             json.dumps(command["setup"]), "--"] + argv,
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
        rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        rc, stdout, stderr = "timeout", "", str(exc)
    exited = clock()
    record = {}
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    failure = judge(rc, doc, references.get(command_key(command["argv"])))
    if failure and stderr.strip():
        failure += "; stderr: " + stderr.strip().splitlines()[-1]
    setup_end = record.get("setup_end")
    ref_setup = ref_command = None
    if setup_end is not None:
        ref_setup = reference_seconds(launched, setup_end, record["probes"])
        ref_command = reference_seconds(setup_end, exited, record["probes"])
    return {
        "argv": argv,
        "launched": launched,
        "exited": exited,
        "wall_s": exited - launched,
        "setup_s": setup_end - launched if setup_end is not None else None,
        "ref_setup_s": ref_setup,
        "ref_wall_s": ref_setup + ref_command if ref_command is not None else None,
        "rss_mb": record.get("maxrss_mb"),
        "rat": record.get("rat"),
        "doc": doc,
        "failure": failure,
        "record": record,
    }


def run_round(workload, seed, trace, references, deadline=None):
    results = [
        run_command(i, cmd, seed, trace, references, deadline)
        for i, cmd in enumerate(workload["commands"])
    ]
    return {"results": results, "failed": sum(1 for r in results if r["failure"])}


def warm_up():
    """Import hopfring once in a fresh interpreter, untimed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import hopfring.cli"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )


def timed_run(workload, seed, seconds, references, start, deadline):
    """Samples of each command, run in order round after round for ``seconds``.

    After the first round a command starts only if, at its median so far, it
    is expected to be at least half done when ``seconds`` have passed; a run
    therefore ends within half a command of ``seconds``.
    """
    commands = workload["commands"]
    samples = [[] for _ in commands]
    for i in itertools.count():
        k = i % len(commands)
        if i >= len(commands):
            expected = statistics.median(r["wall_s"] for r in samples[k])
            if clock() - start + expected / 2 > seconds:
                return samples
        samples[k].append(run_command(k, commands[k], seed, False, references, deadline))


def summarise(samples):
    """End-to-end metrics and notes from each command's passing samples."""
    good = [[r for r in rs if not r["failure"]] for rs in samples]
    if not all(good):
        return {}, {}
    counts = "%d-%d samples per command" % (min(map(len, good)), max(map(len, good)))

    def per_command(key, stat):
        return sum(stat([r[key] for r in rs]) for rs in good)

    metrics = {
        "total_s": per_command("ref_wall_s", statistics.mean),
        "setup_s": per_command("ref_setup_s", statistics.median),
        "peak_rss_mb": max(statistics.median(r["rss_mb"] for r in rs) for rs in good),
    }
    notes = {
        "total_s": "mean per command, %s; wall %.6f s"
        % (counts, per_command("wall_s", statistics.mean)),
        "setup_s": "median per command, %s; wall %.6f s"
        % (counts, per_command("setup_s", statistics.median)),
        "peak_rss_mb": "largest per-command median, %s" % counts,
    }
    return metrics, notes


def layer_metrics(traced, untraced):
    totals = {}
    for r in traced["results"]:
        for name, value in r["record"].get("metrics", {}).items():
            totals[name] = totals.get(name, 0) + value
    calls = totals.get("algebra.mono_mul_calls", 0)
    misses = totals.get("algebra.pair_memo_misses", 0)
    totals["algebra.pair_memo_hit_ratio"] = (calls - misses) / calls if calls else 0.0
    times = [[r["ref_wall_s"] for r in rd["results"]] for rd in (traced, untraced)]
    # A failed command has no time; the run then reports correct: false.
    ok = all(t is not None for ts in times for t in ts)
    totals["trace.overhead_s"] = sum(times[0]) - sum(times[1]) if ok else 0.0
    return totals


def self_check(workload, traced, untraced, metrics):
    """Raise SelfCheckError if the traced run does not cover what it should."""
    problems = []
    for name in PER_LAYER_UNITS:
        if name not in metrics:
            problems.append("%s is absent" % name)
    for name in workload["nonzero"]:
        if not metrics.get(name):
            problems.append("%s is zero or absent" % name)
    for name in workload["zero"]:
        if metrics.get(name, 0) != 0:
            problems.append("%s is %r, expected 0 (bypassed layer)" % (name, metrics[name]))
    for t, u in zip(traced["results"], untraced["results"]):
        if t["doc"] != u["doc"]:
            problems.append("traced answers differ from untraced: %s" % command_key(t["argv"]))
        rec = t["record"]
        for build in rec.get("builds_in_setup", []):
            if build not in rec.get("builds_in_command", []):
                problems.append(
                    "set-up built %s, which %s does not build" % (build, command_key(t["argv"]))
                )
    if problems:
        raise SelfCheckError("; ".join(problems))


def machine(results):
    rats = sorted({r["rat"] for r in results if r["rat"]})
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "hopfring")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rat_backend": rats[0] if len(rats) == 1 else rats,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run(workload_name, seed, seconds, trace):
    workload = WORKLOADS[workload_name]
    with open(REFERENCE) as fh:
        references = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    warm_up()
    start = clock()
    deadline = start + RUN_BUDGET_S
    if trace:
        rounds = [run_round(workload, seed, False, references, deadline),
                  run_round(workload, seed, True, references, deadline)]
        samples = [list(rs) for rs in zip(*(rd["results"] for rd in rounds))]
    else:
        samples = timed_run(workload, seed, seconds, references, start, deadline)
    results = [r for rs in samples for r in rs]
    attempted = len(results)
    failed = sum(1 for r in results if r["failure"])
    print("workload %s  seed %d  trace %d  commands run %d  commands per round %d"
          % (workload_name, seed, trace, attempted, len(workload["commands"])))
    print("why: %s" % workload["why"])
    print("machine: %s" % json.dumps(machine(results), sort_keys=True))
    for rs in samples:
        print("  %-62s runs %d  wall %8.3f s  setup %s  rss %s" % (
            command_key(rs[0]["argv"]), len(rs), statistics.mean(r["wall_s"] for r in rs),
            "%.3f s" % rs[-1]["setup_s"] if rs[-1]["setup_s"] is not None else "-",
            "%.1f MB" % rs[-1]["rss_mb"] if rs[-1]["rss_mb"] is not None else "-"))
    for r in results:
        if r["failure"]:
            print("FAILED %s: %s" % (command_key(r["argv"]), r["failure"]))
    if trace:
        metrics = layer_metrics(rounds[1], rounds[0])
        if not failed:
            self_check(workload, rounds[1], rounds[0], metrics)
        units = PER_LAYER_UNITS
    else:
        metrics, notes = summarise(samples)
        units = END_TO_END_UNITS
    for name in sorted(metrics):
        note = "traced round" if trace else notes[name]
        print("%-30s %14.6f %-6s %s" % (name, metrics[name], units[name], note))
    print("%-30s %14.6f %-6s %d failed of %d commands attempted"
          % ("error_rate", failed / attempted, "ratio", failed, attempted))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())
        },
    }
    print(json.dumps(result, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description="hopfring workload benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfring", "cli.py")):
        sys.stderr.write("hopfring sources not found under %s/src\n" % ROOT)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SelfCheckError as exc:
        sys.stderr.write("benchmark self-check failed: %s\n" % exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
