"""Rewrite the golden outputs that tests/test_golden.py compares against.

Run by hand from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/golden/regenerate.py

It runs the golden configs through the commands of ``test_golden``, the
flow config into this directory and the semilinear config into
``semilinear/``, and records the Python, numpy and scipy versions in
``versions.txt``.  Run the golden test first: its failure message gives the
largest change per file, which a change that moves the outputs by design
states.
"""

import platform
import sys
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import (FILES, SEMILINEAR, SEMILINEAR_FILES,  # noqa: E402
                         run_config, run_semilinear)

if __name__ == "__main__":
    run_config(HERE)
    SEMILINEAR.mkdir(exist_ok=True)
    run_semilinear(SEMILINEAR)
    (HERE / "versions.txt").write_text(
        f"python {platform.python_version()}\n"
        f"numpy {numpy.__version__}\nscipy {scipy.__version__}\n")
    print("wrote", ", ".join(FILES), "and versions.txt to", HERE)
    print("wrote", ", ".join(SEMILINEAR_FILES), "to", SEMILINEAR)
