"""Entry point: ``python3 benchmarks/e2e/__main__.py`` or, from the repo
root, ``python3 -m benchmarks.e2e``. Both measure this checkout's
``src/``, whatever else is installed."""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if not __package__:
    # Run by path: sys.path[0] is this directory, whose module names
    # (stats, spans, …) must not shadow anything.
    sys.path[0] = _ROOT
sys.path.insert(0, os.path.join(_ROOT, "src"))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
