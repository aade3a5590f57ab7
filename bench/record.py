"""Record the reference values the benchmark checks runs against.

For each input set and workload this runs one untraced command and stores
the values ``run.py`` compares later (the first-epoch train loss and dev
map, or ``map=``) in ``bench/expected.json``.  Run it from the root of the
commit whose outputs are the reference:

    python3 bench/record.py --size paper
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from workloads import INPUT_SETS, WORKLOADS, generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("paper", "toy"), default="paper")
    parser.add_argument("--sets", type=int, nargs=2, default=(0, INPUT_SETS - 1),
                        metavar=("FIRST", "LAST"), help="input sets to record (default: all)")
    args = parser.parse_args()
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    path = os.path.join(run.HERE, "expected.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    for input_set in range(args.sets[0], args.sets[1] + 1):
        meta = generate(root, input_set, args.size)
        for wl in WORKLOADS.values():
            rec = run.run_command(root, wl, meta, f"record-{wl.name}-set{input_set}", traced=False)
            values = run.check_command(wl, meta, rec)
            run.discard_outputs(rec)
            table.setdefault(args.size, {}).setdefault(wl.name, {})[str(input_set)] = values
            print(f"{args.size} {wl.name} input set {input_set}: {values!r}", file=sys.stderr)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
