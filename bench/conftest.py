"""Lets the benchmark's tests import the package from ``src/``.

Run them with ``python3 -m pytest bench``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
