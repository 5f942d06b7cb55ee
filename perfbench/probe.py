"""Set one workload up in a fresh interpreter and exit: what ``setup_s`` times.

    python3 perfbench/probe.py --workload NAME --seed N

Imports the package from the checkout's ``src/``, builds the workload's
inputs from the seed and warms it up, as run.py does before its first timed
call.  run.py starts this several times in each untraced run and reports
the median wall time.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from run import HERE, ROOT, import_package, load_workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    import_package()
    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-probe")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        load_workloads()[args.workload](ROOT, args.seed, workdir).warm_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
