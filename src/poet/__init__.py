"""Set-prediction multi-instance 2D pose estimation toolkit.

Pose vectorization, bipartite matching with a Hungarian solver, the composite
matched-pair training loss with verified gradients, OKS/AP evaluation, a
small transformer trained end to end on synthetic data, and a CLI tying it
together.

This module imports no submodule (use ``from poet import training``), so
``import poet.cli`` does not load numpy and ``poet --threads`` can still set
the BLAS thread count.
"""

__version__ = "0.1.0"
