"""Run the qubit-chaos CLI as ``python -m qubit_chaos.cli`` does, then print
this process's peak resident memory (VmHWM, in kB) as the last stderr line.

The parent cannot take the figure from rusage: a forked child's ru_maxrss
starts at the parent's own resident size, which would floor every reading
at the benchmark's memory.  VmHWM belongs to the address space exec built.
"""

import atexit
import runpy
import sys

TAG = "perfbench-vmhwm-kb"


def _report() -> None:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                sys.stderr.write(f"\n{TAG} {line.split()[1]}\n")


if __name__ == "__main__":
    atexit.register(_report)
    runpy.run_module("qubit_chaos.cli", run_name="__main__", alter_sys=True)
