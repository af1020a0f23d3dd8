"""Set-prediction multi-instance 2D pose estimation toolkit.

Pose vectorization, bipartite matching with a Hungarian solver, the composite
matched-pair training loss with verified gradients, OKS/AP evaluation, a
small transformer trained end to end on synthetic data, and a CLI tying it
together.

Submodules load on first use, so ``import poet.cli`` does not load numpy
and ``poet --threads`` can still set the BLAS thread count.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "autodiff",
    "checkpoint",
    "config",
    "data",
    "gradcheck",
    "loss",
    "matching",
    "metrics",
    "model",
    "pose",
    "training",
)

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
