import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_tree_matches_itself_bit_for_bit():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "parity.py"), str(ROOT), str(ROOT),
         "--seeds", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for workload in ("wide-blocks", "certify", "cli"):
        line = next(line for line in lines if line.startswith(f"{workload}: "))
        same, _, total = line.split(": ")[1].split()[:3]
        assert same == total and int(total) > 0, line
    assert not any(line.startswith(("only in", "differs", "largest")) for line in lines)
    assert "cli output files: " in proc.stdout
