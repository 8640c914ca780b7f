"""Make the in-tree ``repro`` and ``bench`` packages importable for
``python -m pytest bench -q`` without an install."""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
