import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
