"""The benchmark's workloads: pinned relqi CLI invocations and their seeded grids.

Every workload is a closed loop with one client: its invocations run one
after another, each as a fresh `python -m relqi` process, and the next
starts only when the previous one has exited.  Seed 0 passes the grids
below verbatim.  Any other seed shifts each swept parameter by one offset
drawn inside its step, from the window given in units of that step, so the
row count and resolution stay the same; the windows keep every value in
the range where the seed-0 rows converge at the pinned tolerance.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass


def parse_values(text: str) -> list[float]:
    """Values of a `a,b,c` or inclusive `min:max:step` flag, as the CLI reads them."""
    if ":" in text:
        lo, hi, step = (float(t) for t in text.split(":"))
        count = math.floor((hi - lo) / step + 1e-9) + 1
        return [lo + i * step for i in range(count)]
    return [float(t) for t in text.split(",") if t]


@dataclass(frozen=True)
class Sweep:
    """A swept flag: its seed-0 text and the window of its seeded offset."""

    flag: str
    text: str
    window: tuple[float, float]

    def shifted(self, rng: random.Random) -> str:
        values = parse_values(self.text)
        if ":" in self.text:
            lo, hi, step = (float(t) for t in self.text.split(":"))
        else:
            step = values[1] - values[0]
        offset = step * (self.window[0] + (self.window[1] - self.window[0]) * rng.random())
        if ":" in self.text:
            text = f"{lo + offset!r}:{hi + offset!r}:{step!r}"
        else:
            text = ",".join(repr(v + offset) for v in values)
        if len(parse_values(text)) != len(values):
            raise ValueError(f"shifted {self.flag} changed the row count: {text}")
        return text


@dataclass(frozen=True)
class Invocation:
    """One relqi subprocess: subcommand, swept and pinned flags, output kind."""

    name: str
    command: str
    kind: str                       # spin | doppler | channel | entangle
    resolution: int
    sweeps: tuple[Sweep, ...] = ()
    pinned: tuple[tuple[str, str], ...] = ()

    @property
    def suffix(self) -> str:
        return ".json" if self.kind == "channel" else ".csv"

    def sweep_texts(self, workload: str, seed: int) -> dict[str, str]:
        if seed == 0:
            return {s.flag: s.text for s in self.sweeps}
        rng = random.Random(f"{workload}/{self.name}/{seed}")
        return {s.flag: s.shifted(rng) for s in self.sweeps}

    def argv(self, texts: dict[str, str], out: str) -> list[str]:
        """Subcommand arguments; `--flag=value` keeps negative lists unambiguous."""
        args = [self.command]
        args += [f"{flag}={text}" for flag, text in texts.items()]
        args += [f"{flag}={value}" for flag, value in self.pinned]
        args += [f"--resolution={self.resolution}", f"--out={out}"]
        return args

    def expected_params(self, texts: dict[str, str]) -> list[tuple[float, ...]]:
        """Swept parameters of each output row, in the CLI's row order."""
        if not self.sweeps:
            return [()]
        return list(itertools.product(*(parse_values(texts[s.flag]) for s in self.sweeps)))

    def pinned_value(self, flag: str) -> float:
        return float(dict(self.pinned)[flag])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spin_sweep",
            "massive-spin path: Wigner SU(2) kernel and spinor transport over 48 short "
            "rows at n=12 plus n=24 refinement; photon and entangle idle",
            (
                Invocation(
                    "spin", "spin-entropy", "spin", 12,
                    sweeps=(
                        Sweep("--theta", "0:3.14159:0.19635", (0.0, 1.0)),
                        Sweep("--gamma", "0,0.25,0.5", (0.0, 0.5)),
                    ),
                    pinned=(("--delta-over-m", "1"), ("--tolerance", "1e-4")),
                ),
            ),
        ),
        Workload(
            "photon_doppler",
            "photon path: 19-row Doppler sweep with tomography cross-check and standard "
            "rotations, no Wigner rotation; then the channel audit",
            (
                Invocation(
                    "doppler", "doppler", "doppler", 12,
                    sweeps=(Sweep("--v", "-0.9:0.9:0.1", (-0.5, 0.5)),),
                    pinned=(("--kA", "100"), ("--dr", "1"), ("--dz", "0.1"),
                            ("--tolerance", "1e-4"), ("--format", "csv")),
                ),
                Invocation(
                    "channel", "channel-audit", "channel", 12,
                    pinned=(("--gamma", "0.2"), ("--witness-v", "0.5")),
                ),
            ),
        ),
        Workload(
            "entangle_pairs",
            "O(N^2) pair amplitudes: 6 long memory-bound rows at n=8 with n=12 "
            "refinement, about 1 GB resident, 3 waves on 2 workers",
            (
                Invocation(
                    "entangle", "entangle-sweep", "entangle", 8,
                    sweeps=(
                        # Above delta/m ~0.7 the beta=0.9 row misses 1e-4 at n=8.
                        Sweep("--delta-over-m", "0.0001,0.5", (0.0, 0.2)),
                        Sweep("--beta", "0.3,0.6,0.9", (-0.5, 0.0)),
                    ),
                    pinned=(("--tolerance", "1e-4"),),
                ),
            ),
        ),
    )
}

# The subcommand whose rows each layer's refine_share is taken over.
ROW_LAYER = {"spin-entropy": "spin_half", "doppler": "photon", "entangle-sweep": "entangle"}
