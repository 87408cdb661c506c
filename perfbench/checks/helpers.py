"""Shared paths and imports for the benchmark's own checks."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

for path in (BENCH_DIR, SRC):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
