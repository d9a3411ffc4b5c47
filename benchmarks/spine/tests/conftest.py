"""The spine's own tests (``--smoke`` sizes; not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/spine/tests -q
"""

import sys
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent.parent
for path in (SPINE_DIR, SPINE_DIR.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
