"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``. The
files are named ``test_*.py`` and live outside ``testpaths``, so neither the
tier-1 suite nor the ``bench_*.py`` collection picks them up.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (str(ROOT / "src"), str(E2E)):
    if path not in sys.path:
        sys.path.insert(0, path)
