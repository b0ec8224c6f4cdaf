"""numpy, bound lazily: it loads when a function first reads one of its attributes.

Every relqi module takes numpy as `from ._numpy import np`.  When numpy is
not imported yet, `np` is a module whose loader (importlib.util.LazyLoader)
runs numpy's `__init__` on the first attribute read, and it is registered
in sys.modules, so that a later `import numpy` anywhere gets the same
module.  A plain `import numpy` in a relqi module would read the module's
`__spec__` and load it at once.  So `import relqi.cli`, and a subcommand
whose path reads no numpy attribute (`doppler`, `photon-distinguish`,
`photon-density`), never pay for numpy; a missing numpy still raises
ModuleNotFoundError at `import relqi`.  No relqi module holds a numpy
object at module level: each function builds the arrays it computes with.
"""

from __future__ import annotations

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
