"""What the benchmark's tracer reads of relqi is still there.

bench/tracing.py wraps relqi's public functions by name and reports a
function that no longer exists as absent, without failing the run.  These
tests read its tables (without importing it) and require every name they
list, the hooks it patches and the parameters it reads grid sizes from.
"""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

from relqi import cli, entangle, spin_half

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# install() wraps SpinorPacket.__post_init__ under this name; it is no module function
PACKET_VALIDATE = "spin_half.packet_validate"


def _tables():
    """(LAYERS, function names of FUNCTION_METRICS and COUNTERS) as tracing.py lists them."""
    values = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            values[getattr(node.targets[0], "id", None)] = node.value
    layers = ast.literal_eval(values["LAYERS"])
    names = [entry.elts[0].value for entry in values["FUNCTION_METRICS"].elts]
    names += [key.value for key in values["COUNTERS"].keys]
    return layers, names


def test_every_traced_name_is_a_public_module_function():
    layers, names = _tables()
    assert names
    missing = []
    for name in names:
        if name == PACKET_VALIDATE:
            continue
        layer, attr = name.split(".")
        module = importlib.import_module(f"relqi.{layer}")
        obj = getattr(module, attr, None)
        if not (layer in layers and not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            missing.append(name)
    assert missing == []


def test_the_patched_hooks_exist():
    assert inspect.isfunction(cli._map_rows)
    assert inspect.isfunction(spin_half.SpinorPacket.__post_init__)


def test_grid_sizes_are_read_from_nodes_per_axis():
    for fn in (spin_half.sweep_values, entangle.sweep_values, spin_half.wigner_moments):
        assert "nodes_per_axis" in inspect.signature(fn).parameters, fn.__qualname__


def test_importing_the_cli_loads_every_traced_module():
    # the tracer wraps only modules already in sys.modules
    layers, _ = _tables()
    probe = ("import sys, relqi.cli; "
             f"print(sorted(m for m in {layers!r} if 'relqi.' + m not in sys.modules))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
