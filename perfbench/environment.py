"""The environment a result was measured in, and the rule for comparing two.

``REPRO_COLUMNAR`` and ``REPRO_COLUMNAR_NUMPY=auto`` switch the kernels
underneath every workload without any other visible change, so two
result sets may only be compared when their substrates agree.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any


class EnvironmentMismatch(ValueError):
    """Two result sets were measured on different substrates."""


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def record() -> dict[str, Any]:
    """The environment of this process, as plain data."""
    from repro.relational import columnar

    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    return {
        "substrate": columnar.substrate_summary(),
        "columnar": columnar.columnar_enabled(),
        "numpy_kernels": columnar.numpy_enabled(),
        "numpy": numpy_version,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": _cpu_count(),
        "machine": platform.machine(),
    }


def check_comparable(a: dict[str, Any], b: dict[str, Any]) -> None:
    """Raise :class:`EnvironmentMismatch` unless ``a`` and ``b`` ran on
    the same substrate (columnar on/off and numpy kernels on/off)."""
    keys = ("substrate", "columnar", "numpy_kernels")
    differ = [k for k in keys if a.get(k) != b.get(k)]
    if differ:
        detail = ", ".join(f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in differ)
        raise EnvironmentMismatch(
            f"refusing to compare results from different substrates ({detail})"
        )
