"""Put the repository root and ``src`` on the path for the benchmark's tests.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "src", ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
