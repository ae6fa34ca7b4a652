import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import parity  # noqa: E402  (tools/ is not a package)


def test_parity_check_finds_this_tree_equal_to_itself():
    # every subcommand and bad input runs twice, in two scratch directories
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "parity.py"), "--against", str(ROOT)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    outputs = len(lines) - 1
    assert lines[-1].startswith(f"{outputs} of {outputs} outputs are the same")
    assert outputs > 30 and all(line.startswith("same") for line in lines[:-1])

# the shape of `pytest -m acceptance -q` output, with the progress dots
# around each criterion's line
CANNED = """\
.
[acceptance] criterion 1 (coverage): PASS -- boot 0.948, gauss 0.951
.
[acceptance] criterion 2 (calibration): PASS -- max gap 0.012
..
[acceptance] criterion 3 (rmse): FAIL -- ratio 1.31
.                                                                  [100%]
3 passed in 212.04s (0:03:32)
"""


def test_acceptance_lines_are_read_in_order():
    lines = parity.acceptance_lines(CANNED)
    assert lines == ["[acceptance] criterion 1 (coverage): PASS -- boot 0.948, gauss 0.951",
                     "[acceptance] criterion 2 (calibration): PASS -- max gap 0.012",
                     "[acceptance] criterion 3 (rmse): FAIL -- ratio 1.31"]
    assert parity.acceptance_lines("..[acceptance] x: PASS\n") == ["[acceptance] x: PASS"]
    assert parity.acceptance_lines("3 passed in 1.0s\n") == []


def test_acceptance_comparison_flags_each_changed_line(capsys):
    same = parity.acceptance_lines(CANNED)
    changed = [same[0], same[1].replace("0.012", "0.013"), same[2]]
    lines = parity.compare_acceptance(same, changed)
    assert [label for label, _ in lines] == ["criterion 1 (coverage)",
                                             "criterion 2 (calibration)", "criterion 3 (rmse)"]
    assert [bool(diff) for _, diff in lines] == [False, True, False]
    assert parity.report(lines, Path("a"), Path("b")) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("same  criterion 1") and out[1].startswith("DIFF  criterion 2")
    assert out[-1] == "2 of 3 outputs are the same in a and b"
    assert parity.report(parity.compare_acceptance(same, list(same)), Path("a"), Path("b")) == 0


def test_acceptance_comparison_flags_a_missing_or_empty_run():
    same = parity.acceptance_lines(CANNED)
    lines = parity.compare_acceptance(same, same[:2])
    assert [bool(diff) for _, diff in lines] == [False, False, True]
    assert all(diff for _, diff in parity.compare_acceptance(same, []))
    assert all(diff for _, diff in parity.compare_acceptance([], []))
