"""Run one ``hopfring`` command in a fresh interpreter for the benchmark.

    python3 perfbench/child.py RECORD TRACE SETUP -- <hopfring arguments>

The process first does the command's set-up itself: it imports hopfring,
builds the algebras the command is known to build (through the CLI's own
build path, so with the CLI's default self-check depth) and, for commands
that use modules, the module catalog.  It then calls ``hopfring.cli.main``
with the command's arguments.  The package caches algebras and catalogs
per process, so this adds no work: it only marks where set-up ends.

From its start until the command returns, the process times the host's
speed (``hostspeed.Sampler``), also right before set-up ends.

The command's JSON goes to stdout.  RECORD receives a JSON object with the
monotonic time set-up ended, the host-speed probes, the exit code, the peak
RSS and, with TRACE = 1, the per-layer metrics; the spans go to
RECORD + ".spans.json".
SETUP is a JSON list of steps: ["algebra", family_key],
["algebra", family_key, assoc_sample] for a command that builds with its own
self-check depth, or ["catalog", family_key, seed], where a seed of null
means the command's ``--seed``.
"""

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def set_up(cli, steps, argv):
    args = cli.build_parser().parse_args(argv)
    for step in steps:
        family_key = step[1]
        if step[0] == "algebra" and len(step) == 3:
            from hopfring.algebra import AlgebraSpec, build_algebra

            build_algebra(AlgebraSpec(family_key, args.n), assoc_sample=step[2])
            continue
        H = cli._build(family_key, args.n)
        if step[0] == "catalog":
            from hopfring.repn import module_catalog

            seed = args.seed if step[2] is None else step[2]
            module_catalog(H, seed=seed)


def main():
    record_path, trace, steps = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RECORD TRACE SETUP -- ARGS")
    argv = sys.argv[5:]
    sys.path.insert(0, HERE)
    from hostspeed import Sampler, clock

    sampler = Sampler().start()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer().install()
    from hopfring import cli
    from hopfring.cyclo import RAT

    set_up(cli, steps, argv)
    builds_in_setup = len(tracer.builds) if tracer else 0
    sampler.sample()
    setup_end = clock()
    rc = cli.main(argv)
    sys.stdout.flush()
    sampler.stop()
    record = {
        "setup_end": setup_end,
        "probes": sampler.samples,
        "rc": rc,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rat": "%s.%s" % (RAT.__module__, RAT.__name__),
    }
    if tracer:
        record["metrics"] = tracer.metrics()
        record["builds_in_setup"] = tracer.builds[:builds_in_setup]
        record["builds_in_command"] = tracer.builds[builds_in_setup:]
        tracer.write_spans(record_path + ".spans.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
