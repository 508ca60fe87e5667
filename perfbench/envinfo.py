"""Import guard and environment block.

helmat is not pip-installed here: the benchmark runs the copy in the
checkout's ``src/``.  It refuses to run if ``import helmat`` resolves
anywhere else, so a stale installed copy can never be measured by mistake.
"""

from __future__ import annotations

import os
import platform
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One BLAS thread: each workload is a single closed-loop caller, well under
#: the two cores of the reference machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class GuardError(RuntimeError):
    """helmat is missing from the checkout or resolves outside its src/."""


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def import_helmat():
    """Import helmat from ``<checkout>/src`` or raise :class:`GuardError`."""
    if not (SRC / "helmat" / "__init__.py").is_file():
        raise GuardError(f"no helmat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import helmat

    resolved = Path(helmat.__file__).resolve()
    if SRC.resolve() not in resolved.parents:
        raise GuardError(f"helmat resolves to {resolved}, outside {SRC}")
    return helmat


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(helmat_module) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": blas_version,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "helmat_file": str(Path(helmat_module.__file__).resolve().relative_to(ROOT)),
    }
