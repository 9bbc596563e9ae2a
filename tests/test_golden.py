"""Golden outputs: the criterion-8 config (tests/golden/config.json) run at
seed 9 against the seven files committed in tests/golden, and the
semilinear config (tests/golden/semilinear.json) against the two files in
tests/golden/semilinear.

Every number may move by ``GOLDEN_RTOL`` relative; integers (counts,
iteration numbers, seeds) and the text around the numbers must match
exactly.  ``tests/golden/versions.txt`` names the Python, numpy and scipy
that wrote the files.  A change that moves these outputs by design reruns
``tests/golden/regenerate.py`` and states the largest change, which this
test's failure message gives per file.
"""

import math
import re
from pathlib import Path

from riskquad.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"
SEED = 9
COMMANDS = ("truncation-study", "optimize", "sample-field")
FILES = ("truncation_rates.csv", "iterates.csv", "optimal_control.csv",
         "risk_report.txt", "true_risk_initial.csv", "true_risk_optimal.csv",
         "field_samples.csv")
# the semilinear problem runs no optimize
SEMILINEAR = GOLDEN / "semilinear"
SEMILINEAR_COMMANDS = ("truncation-study", "sample-field")
SEMILINEAR_FILES = ("truncation_rates.csv", "field_samples.csv")
GOLDEN_RTOL = 1e-10

# a number that is not part of a name, so the 0 of sample_0 stays text
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|nan|inf)(?![\w.])")
INTEGER = re.compile(r"[-+]?\d+")


def run_config(out, config=GOLDEN / "config.json", commands=COMMANDS):
    """Run ``commands`` on the golden ``config`` at ``SEED``, writing to ``out``."""
    for command in commands:
        code = cli_main(["--config", str(config), "--out", str(out),
                         "--seed", str(SEED), command])
        if code != 0:
            raise RuntimeError(f"{command} exited with code {code}")


def run_semilinear(out):
    """Run ``SEMILINEAR_COMMANDS`` on the semilinear golden config at ``SEED``."""
    run_config(out, GOLDEN / "semilinear.json", SEMILINEAR_COMMANDS)


def largest_change(new, old):
    """Largest relative change of a number from the text ``old`` to ``new``;
    infinite when the texts differ outside their numbers or in an integer."""
    if NUMBER.split(new) != NUMBER.split(old):
        return math.inf
    worst = 0.0
    for x, y in zip(NUMBER.findall(new), NUMBER.findall(old)):
        if x == y:
            continue
        if INTEGER.fullmatch(x) and INTEGER.fullmatch(y):
            return math.inf
        change = abs(float(x) - float(y)) / abs(float(y)) if float(y) else math.inf
        worst = max(worst, change if change == change else math.inf)
    return worst


def test_largest_change_reads_numbers_integers_and_text():
    old = "beta,iter\n1,3\n# slope=0.5 n_mc=10\n"
    assert largest_change(old, old) == 0.0
    assert largest_change(old.replace("0.5", "0.50000000000001"), old) < 1e-13
    assert largest_change(old.replace("1,", "1.0000000000000002,"), old) < 1e-15
    assert largest_change(old.replace("0.5", "0.6"), old) > 0.1
    assert largest_change(old.replace("3", "4"), old) == math.inf
    assert largest_change(old.replace("slope", "slops"), old) == math.inf
    assert largest_change(old.replace("0.5", "nan"), old) == math.inf


def largest_changes(out, golden, files):
    """``largest_change`` of each of ``files`` from ``golden`` to ``out``."""
    return {name: largest_change((out / name).read_text(),
                                 (golden / name).read_text())
            for name in files}


def test_golden_outputs_match_at_stated_tolerance(tmp_path):
    run_config(tmp_path)
    changes = largest_changes(tmp_path, GOLDEN, FILES)
    assert max(changes.values()) <= GOLDEN_RTOL, changes


def test_semilinear_golden_outputs_match_at_stated_tolerance(tmp_path):
    run_semilinear(tmp_path)
    changes = largest_changes(tmp_path, SEMILINEAR, SEMILINEAR_FILES)
    assert max(changes.values()) <= GOLDEN_RTOL, changes
