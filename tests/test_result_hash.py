import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "result_hash.py"


def _digest(*args) -> str:
    out = subprocess.run([sys.executable, str(TOOL), *args], check=True,
                         capture_output=True, text=True, timeout=120)
    assert re.fullmatch(r"[0-9a-f]{64}\n", out.stdout), out.stdout
    return out.stdout


def test_result_hash_is_one_stable_digest_of_the_grid():
    reduced = _digest("--seeds", "1", "--snr", "inf")
    assert _digest("--seeds", "1", "--snr", "inf") == reduced
    # the frame results are in the digest: another SNR point changes it
    assert _digest("--seeds", "1", "--snr", "16") != reduced
