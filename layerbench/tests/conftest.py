"""Tests of the benchmark's own helpers (not part of tier-1).

    python -m pytest layerbench/tests -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# ``layerbench.workloads`` imports ``repro``; the tree is not installed.
sys.path.insert(0, str(ROOT / "src"))
