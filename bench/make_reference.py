"""Regenerate the seed-0 reference outputs the benchmark compares against.

    python3 bench/make_reference.py

Runs every workload's invocations once with the seed-0 flags and stores
their output files under bench/reference/seed0/.  Regenerate only when a
change to relqi is meant to change its printed numbers, and say so.
"""

from __future__ import annotations

import subprocess
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    run.REFERENCE.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS.values():
        for inv in workload.invocations:
            out = run.REFERENCE / f"{inv.name}{inv.suffix}"
            argv = inv.argv(inv.sweep_texts(workload.name, 0), str(out))
            subprocess.run([sys.executable, "-m", "relqi", *argv], env=run.child_env(),
                           check=True, timeout=run.CHILD_TIMEOUT_S)
            print(f"wrote {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
