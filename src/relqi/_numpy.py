"""numpy, bound lazily: it loads when a function first reads one of its attributes.

Every relqi module takes numpy as `from ._numpy import np`.  When numpy is
not imported yet, `np` is a module whose loader (importlib.util.LazyLoader)
runs numpy's `__init__` on the first attribute read, and it is registered
in sys.modules, so that a later `import numpy` anywhere gets the same
module.  A plain `import numpy` in a relqi module would read the module's
`__spec__` and load it at once.  So `import relqi.cli`, and a subcommand
whose path reads no numpy attribute (`doppler`, `photon-distinguish`,
`photon-density`), never pay for numpy; a missing numpy still raises
ModuleNotFoundError at `import relqi`.

A module's numpy constants are built on their first use too (`constants`),
and stay readable as module attributes through its PEP 562 `__getattr__`.
"""

from __future__ import annotations

import functools
import importlib.util
import sys


def _lazy(name: str):
    """The module `name`: the imported one, or one that loads on its first attribute read."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")


def constants(module: str, **builders):
    """(get, __getattr__) of the numpy constants of `module`, each built on first use.

    get(name) builds the constant `builders[name]()` once and keeps it;
    __getattr__ is the module's PEP 562 hook, which reads the same names as
    module attributes.  Any other name raises AttributeError without
    building anything, so probes such as hasattr(module, "__path__") load
    no numpy.
    """
    @functools.cache
    def get(name: str):
        return builders[name]()

    def __getattr__(name: str):
        if name in builders:
            return get(name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return get, __getattr__
