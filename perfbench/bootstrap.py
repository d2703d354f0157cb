"""Process set-up shared by the benchmark's entry points; import it before
numpy.  It pins the BLAS thread pools to one thread and puts the checkout's
``src`` first on the import path, so the benchmark measures the robodet of
the checkout it runs in."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "robodet" / "__init__.py").is_file():
    sys.exit(f"perfbench: no robodet package under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))
