"""Puts the program's source tree (``src/`` of the checkout) on the path.

Every entry script imports this before any ``repro`` module, so the
benchmark measures the source next to it and nothing installed.  Without
``src/repro`` it stops with an error before measuring anything.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    raise SystemExit(f"fjbench: no program source at {SRC}; run the "
                     "benchmark from the root of a checkout")
if sys.path[:1] != [SRC]:
    sys.path.insert(0, SRC)
