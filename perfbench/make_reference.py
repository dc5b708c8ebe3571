"""Write ``reference.json``: every workload command's answers at this commit.

    python3 perfbench/make_reference.py

Each command runs once with seed 0 and once with seed 1; the answers must
agree, since no workload's answers depend on the seed, and must pass.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    os.makedirs(run.WORK, exist_ok=True)
    references = {}
    for workload in run.WORKLOADS.values():
        for i, command in enumerate(workload["commands"]):
            docs = []
            for seed in (0, 1):
                result = run.run_command(i, command, seed, False, {})
                doc = result["doc"]
                if doc is None or doc.get("status") != "pass":
                    raise SystemExit("%s did not pass: %s" % (command["argv"], result["failure"]))
                docs.append(run.answers(doc))
            if docs[0] != docs[1]:
                raise SystemExit("%s: answers depend on the seed" % (command["argv"],))
            references[run.command_key(command["argv"])] = docs[0]
            print("%-70s ok" % run.command_key(command["argv"]))
    with open(run.REFERENCE, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
