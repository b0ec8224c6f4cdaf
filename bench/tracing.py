"""Per-layer timings of relqi, taken from outside the program.

The traced run executes a workload's invocations in-process through
`relqi.cli.run`.  For the traced passes it wraps every public function of
each relqi module, `SpinorPacket` validation and the CLI's row pool in
timers, and rebinds each wrapper wherever a relqi module bound the same
object, so that `spin_half.gauss_grid` and `photon.gauss_grid` are both
timed.  Self time is a call's duration minus the duration of the wrapped
calls it made on its own thread.  A function that no longer exists is
reported absent; the run does not fail on it.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, process_time

from workloads import ROW_LAYER

LAYERS = ("cli", "wavepacket", "geometry", "spin_half", "photon", "entangle", "qmatrix",
          "channel")

# (function, fields) reported per pass; fields are calls, self_s and total_s.
FUNCTION_METRICS = (
    ("geometry.rotations_to_su2", ("self_s",)),
    ("geometry.standard_boost", ("self_s",)),
    ("geometry.wigner_su2_batch", ("calls", "self_s", "total_s")),
    ("geometry.standard_rotation_batch", ("calls", "self_s")),
    ("wavepacket.gauss_grid", ("calls", "self_s")),
    ("spin_half.gaussian_packet", ("self_s",)),
    ("spin_half.packet_validate", ("self_s",)),
    ("spin_half.boost_packet", ("self_s",)),
    ("spin_half.reduced_spin_density", ("self_s",)),
    ("photon.effective_density", ("calls", "self_s", "total_s")),
    ("photon.effective_density_tomography", ("self_s", "total_s")),
    ("photon.gaussian_beam", ("self_s",)),
    ("photon.boost_photon", ("self_s",)),
    ("entangle.boost_pair", ("calls", "self_s")),
    ("entangle.spin_spin_density", ("self_s",)),
    ("entangle.bell_gaussian", ("self_s",)),
    ("entangle.concurrence", ("self_s",)),
    ("qmatrix.entropy", ("calls", "self_s")),
    ("qmatrix.helstrom_error", ("calls", "self_s")),
    ("qmatrix.is_completely_positive", ("self_s",)),
    ("channel.certify", ("self_s",)),
    ("channel.consistency_check", ("total_s",)),
    ("channel.non_cp_witness", ("total_s",)),
)

# Work counts read off each call's result.  Pair bytes are computed from
# array sizes: the amplitude boost_pair reads plus the one it writes.
COUNTERS = {
    "geometry.wigner_su2_batch": (("geometry.wigner_nodes", lambda r: len(r[0])),),
    "geometry.standard_rotation_batch": (("geometry.rotation_nodes", len),),
    "wavepacket.gauss_grid": (("wavepacket.grid_nodes_built", lambda r: r.n),),
    "entangle.boost_pair": (
        ("entangle.pair_nodes", lambda r: r.g.shape[0] * r.g.shape[1]),
        ("entangle.pair_bytes_computed", lambda r: 2 * r.g.nbytes),
    ),
}

SCALING_N = (8, 12, 16, 24)
PAIR_SCALING_N = (4, 6, 8)  # n=16 would need about 1 GB per pair amplitude array


class _Table:
    """One thread's call stack, statistics and row records."""

    def __init__(self):
        self.stack: list[float] = []
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.rows: list[tuple[str | None, float]] = []
        self.refined: dict[str, float] = {}
        self.row_layer: str | None = None
        self.in_refined = False


def _grid_nodes(value) -> int:
    """Grid size carried by an argument: a packet, a pair state or an (n, 3) array."""
    for attr in ("grid", "grid1"):
        n = getattr(getattr(value, attr, None), "n", None)
        if isinstance(n, int):
            return n
    shape = getattr(value, "shape", None)
    if isinstance(shape, tuple) and len(shape) == 2 and shape[1] == 3:
        return shape[0]
    return 0


def _size_probe(fn):
    """Return f(args, kwargs) -> the grid size a call works at (0 if unknown)."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        params = {}
    names = list(params)
    key = "nodes_per_axis" if "nodes_per_axis" in names else None
    index = names.index(key) if key else -1
    default = params[key].default if key else None

    def size(args, kwargs) -> int:
        if key:
            n = kwargs.get(key, args[index] if index < len(args) else default)
            if isinstance(n, int):
                return n**3
        return max((_grid_nodes(a) for a in args), default=0)

    return size


class Tracer:
    """Timing wrappers and the statistics they collect across threads."""

    def __init__(self, workers: int):
        self.workers = workers
        self._registry: list[_Table] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.wrapped: set[str] = set()
        self.broken_counters: set[str] = set()
        # Set per invocation: calls above this many grid nodes are refinement work.
        self.refine_above = 0
        self.row_layer: str | None = None
        self.pool_capacity_s = 0.0

    def table(self) -> _Table:
        """This thread's table; tables outlive their threads for totals()."""
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _Table()
            with self._lock:
                self._registry.append(table)
        return table

    def wrap(self, name: str, fn):
        size_of, counters = _size_probe(fn), COUNTERS.get(name, ())
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            table = tracer.table()
            refined = (table.row_layer is not None and not table.in_refined
                       and size_of(args, kwargs) > tracer.refine_above)
            if refined:
                table.in_refined = True
            stack = table.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = table.stats.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
                if refined:
                    table.in_refined = False
                    layer = table.row_layer
                    table.refined[layer] = table.refined.get(layer, 0.0) + elapsed
            for metric, measure in counters:
                try:
                    table.counts[metric] = table.counts.get(metric, 0) + int(measure(result))
                except (AttributeError, TypeError, IndexError):
                    tracer.broken_counters.add(metric)
            return result

        self.wrapped.add(name)
        return timed

    def wrap_rows(self, map_rows):
        """Time each row the CLI's pool runs, and the pool's capacity."""
        tracer = self

        @functools.wraps(map_rows)
        def traced_map_rows(fn, items):
            layer = tracer.row_layer

            def row(item):
                table = tracer.table()
                table.row_layer = layer
                start = perf_counter()
                try:
                    return fn(item)
                finally:
                    table.rows.append((layer, perf_counter() - start))
                    table.row_layer = None

            items = list(items)
            start = perf_counter()
            try:
                return map_rows(row, items)
            finally:
                busy_workers = max(1, min(tracer.workers, len(items)))
                tracer.pool_capacity_s += (perf_counter() - start) * busy_workers

        self.wrapped.add("cli._map_rows")
        return traced_map_rows

    def totals(self):
        """Merged (stats, counts, rows, refined) over every thread."""
        stats, counts, rows, refined = {}, {}, [], {}
        for table in self._registry:
            for name, rec in table.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
            for name, value in table.counts.items():
                counts[name] = counts.get(name, 0) + value
            rows.extend(table.rows)
            for layer, value in table.refined.items():
                refined[layer] = refined.get(layer, 0.0) + value
        return stats, counts, rows, refined


def relqi_modules() -> dict[str, object]:
    return {layer: sys.modules.get(f"relqi.{layer}") for layer in LAYERS}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap and rebind; returns the (owner, attribute, original) patches to undo."""
    wrappers = {}
    for layer, module in relqi_modules().items():
        if module is None:
            continue
        for attr, obj in list(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    patches = []
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "relqi" or name.startswith("relqi.")]
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                patches.append((owner, attr, obj))
                setattr(owner, attr, entry[1])
    modules = relqi_modules()
    packet = getattr(modules["spin_half"], "SpinorPacket", None)
    validate = getattr(packet, "__post_init__", None)
    if validate is not None:
        patches.append((packet, "__post_init__", validate))
        packet.__post_init__ = tracer.wrap("spin_half.packet_validate", validate)
    map_rows = getattr(modules["cli"], "_map_rows", None)
    if map_rows is not None:
        patches.append((modules["cli"], "_map_rows", map_rows))
        modules["cli"]._map_rows = tracer.wrap_rows(map_rows)
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, passes: int, cpu_s: float) -> dict[str, float]:
    """Per-pass function, count, row and refinement metrics from the traced passes."""
    stats, counts, rows, refined = tracer.totals()
    out: dict[str, float] = {}
    fields = {"calls": 0, "total_s": 1, "self_s": 2}
    for name, wanted in FUNCTION_METRICS:
        if name in tracer.wrapped:
            rec = stats.get(name, [0, 0.0, 0.0])
            for field in wanted:
                out[f"{name}.{field}"] = rec[fields[field]] / passes
    for name, counters in COUNTERS.items():
        for metric, _ in counters:
            if name in tracer.wrapped and metric not in tracer.broken_counters:
                out[metric] = counts.get(metric, 0) / passes
    share = ("photon.effective_density", "photon.effective_density_tomography")
    if all(name in tracer.wrapped for name in share):
        whole = stats.get(share[0], [0, 0.0, 0.0])[1]
        out["photon.tomography_share"] = (
            stats.get(share[1], [0, 0.0, 0.0])[1] / whole if whole else 0.0)
    if "cli._map_rows" in tracer.wrapped:
        times = [t for _, t in rows]
        for layer in ROW_LAYER.values():
            row_s = sum(t for lay, t in rows if lay == layer)
            out[f"{layer}.refine_share"] = refined.get(layer, 0.0) / row_s if row_s else 0.0
        out["cli.rows"] = len(times) / passes
        if len(times) >= 2:
            deciles = statistics.quantiles(times, n=10)
            out["cli.row_s.p50"], out["cli.row_s.p90"] = statistics.median(times), deciles[8]
        else:
            out["cli.row_s.p50"] = out["cli.row_s.p90"] = times[0] if times else 0.0
        out["cli.pool_busy_frac"] = (
            sum(times) / tracer.pool_capacity_s if tracer.pool_capacity_s else 0.0)
    out["cli.cpu_s"] = cpu_s / passes
    return out


def _median_self_s(tracer: Tracer, name: str, call, budget_s: float = 0.3) -> float:
    samples = []
    start = perf_counter()
    while len(samples) < 3 or (perf_counter() - start < budget_s and len(samples) < 50):
        before = tracer.totals()[0].get(name, [0, 0.0, 0.0])[2]
        call()
        samples.append(tracer.totals()[0][name][2] - before)
    return statistics.median(samples)


def scaling() -> tuple[dict[str, float], list[str]]:
    """Self time of the three kernels against grid size, with fitted exponents.

    Exponents are slopes of log(self time) against log(nodes per grid), so
    the pair kernel's O(N^2) shows as 2.
    """
    mods = relqi_modules()
    geometry, wavepacket = mods["geometry"], mods["wavepacket"]
    photon, entangle = mods["photon"], mods["entangle"]
    tracer = Tracer(workers=1)
    patches = install(tracer)
    out, absent = {}, []

    def wigner(n):
        spec = wavepacket.GaussianSpec.isotropic(1.0)
        nodes = wavepacket.gauss_grid(spec, n, wavepacket.Measure.PLAIN, mass=1.0).nodes
        lam = geometry.boost_from_velocity([0.0, 0.48, 0.6])
        return lambda: geometry.wigner_su2_batch(lam, nodes, 1.0)

    def density(n):
        beam = photon.gaussian_beam(100.0, 0.1, 1.0, 1, n)
        return lambda: photon.effective_density(beam)

    def pair(n):
        state = entangle.bell_gaussian(0.5, 1.0, n)
        lam = geometry.boost_from_velocity([0.0, 0.0, 0.6])
        return lambda: entangle.boost_pair(lam, state)

    try:
        for name, sizes, make in (("geometry.wigner_su2_batch", SCALING_N, wigner),
                                  ("photon.effective_density", SCALING_N, density),
                                  ("entangle.boost_pair", PAIR_SCALING_N, pair)):
            try:
                if name not in tracer.wrapped:
                    raise AttributeError(name)
                times = [_median_self_s(tracer, name, make(n)) for n in sizes]
                fit = statistics.linear_regression([3 * math.log(n) for n in sizes],
                                                   [math.log(t) for t in times])
            except (AttributeError, TypeError, ValueError) as exc:
                absent.append(f"{name} scaling: {exc!r}")
                continue
            for n, t in zip(sizes, times):
                out[f"{name}.n{n}.self_s"] = t
            out[f"{name}.exponent"] = fit.slope
    finally:
        uninstall(patches)
    return out, absent


def import_times(env: dict[str, str], repeats: int = 3) -> dict[str, float]:
    """Median `-X importtime` cost of each layer's module in a fresh interpreter.

    A module's cost is its cumulative time minus that of the relqi modules
    it imported, so third-party imports count against the relqi module
    that first pulled them in (scipy.spatial against geometry).
    """
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import relqi.cli"],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        for name, seconds in _own_import_times(out.stderr).items():
            samples.setdefault(name, []).append(seconds)
    return {f"{layer}.import_s": statistics.median(samples[f"relqi.{layer}"])
            for layer in LAYERS if f"relqi.{layer}" in samples}


def _own_import_times(report: str) -> dict[str, float]:
    pending: dict[int, list] = {}
    nodes = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1]) * 1e-6
        except ValueError:
            continue  # the column header
        label = parts[2]
        name = label.strip()
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        node = [name, cumulative, pending.pop(depth + 1, [])]
        pending.setdefault(depth, []).append(node)
        nodes.append(node)

    def relqi_below(node):
        for child in node[2]:
            if child[0].startswith("relqi"):
                yield child
            else:
                yield from relqi_below(child)

    return {n[0]: n[1] - sum(c[1] for c in relqi_below(n))
            for n in nodes if n[0].startswith("relqi.")}


def run_workload_in_process(workload, texts, outdir: Path, tracer: Tracer | None):
    """One pass of a workload through relqi.cli.run; returns (seconds, exit codes)."""
    import relqi.cli

    outdir.mkdir(parents=True, exist_ok=True)
    elapsed, codes = 0.0, {}
    for inv in workload.invocations:
        out = outdir / f"{inv.name}{inv.suffix}"
        if out.exists():
            out.unlink()
        if tracer is not None:
            tracer.refine_above = inv.resolution**3
            tracer.row_layer = ROW_LAYER.get(inv.command)
        start = perf_counter()
        try:
            codes[inv.name] = relqi.cli.run(inv.argv(texts[inv.name], str(out)))
        except Exception as exc:  # a crash fails the invocation's rows, as an exit code would
            codes[inv.name] = f"crash {exc!r}"
        elapsed += perf_counter() - start
    return elapsed, codes


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def traced_passes(workload, texts, seconds: float, workdir: Path):
    """Alternate untraced and traced in-process passes for about `seconds`.

    A further pair starts only if it should end within `seconds`, going by
    the last pair; there is always one.

    Returns (metrics, passes, exit codes and output directory of the last
    traced pass, whether every traced output matched its untraced twin).
    """
    tracer = Tracer(workers=int(os.environ["RELQI_THREADS"]))
    overheads, identical, cpu_s, passes = [], True, 0.0, 0
    plain_dir, traced_dir = workdir / "untraced", workdir / "traced"
    # The first full pass in a process pays one-time costs (lazy imports,
    # the allocator growing its heap), so it is run once and not compared.
    run_workload_in_process(workload, texts, workdir / "warm", None)
    start, last_pair_s = perf_counter(), 0.0
    while passes == 0 or perf_counter() - start + last_pair_s <= seconds:
        pair_start, cpu_start = perf_counter(), process_time()
        plain_s, plain_codes = run_workload_in_process(workload, texts, plain_dir, None)
        cpu_s += process_time() - cpu_start
        patches = install(tracer)
        try:
            traced_s, codes = run_workload_in_process(workload, texts, traced_dir, tracer)
        finally:
            uninstall(patches)
        passes += 1
        last_pair_s = perf_counter() - pair_start
        overheads.append(traced_s / plain_s - 1.0)
        for inv in workload.invocations:
            name = f"{inv.name}{inv.suffix}"
            plain, traced = _read(plain_dir / name), _read(traced_dir / name)
            identical &= plain_codes == codes and plain is not None and plain == traced
    metrics = layer_metrics(tracer, passes, cpu_s)
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    return metrics, passes, codes, traced_dir, identical
