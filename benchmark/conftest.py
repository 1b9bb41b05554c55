"""Test set-up matching run.py: BLAS threads pinned, lsdr imported from ``src``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

if "numpy" not in sys.modules:
    run.pin_blas_threads()
run.import_library()
