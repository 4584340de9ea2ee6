"""Entry point of the repo's benchmark: ``python3 benchmarks/e2e/run.py``.

Puts the repo's ``src`` (the program under test) and this package's
parent on the import path, then hands over to :mod:`e2e.cli`.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
