"""The machine and software a benchmark result was measured on (read-only probes)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_PROBE = """\
import json, sys, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (AttributeError, KeyError, TypeError):
    blas = {}
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version")}))
"""


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def describe(root: Path, env: dict[str, str], thread_vars) -> dict:
    """Environment record; versions are probed in a child with the benchmark's env."""
    record = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {name: env.get(name) for name in thread_vars},
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(root),
    }
    try:
        out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        record.update(json.loads(out.stdout))
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        record["probe_error"] = str(exc)
    return record
