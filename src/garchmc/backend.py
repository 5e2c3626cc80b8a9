"""Select the recursion kernel backend at import time.

Prefers the compiled Cython extension; falls back to the numpy/BLAS
implementation when the extension is not built. Set ``GARCHMC_PURE_PYTHON=1``
to force the fallback.
"""
import os

if os.environ.get("GARCHMC_PURE_PYTHON"):
    from . import _kernels_py as kernels

    BACKEND = "python"
else:
    try:
        from . import _kernels as kernels  # type: ignore[attr-defined]

        BACKEND = "cython"
    except ImportError:
        from . import _kernels_py as kernels

        BACKEND = "python"
