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


def test_result_hash_checks_an_expected_digest():
    reduced = _digest("--seeds", "1", "--snr", "inf").strip()
    assert _digest("--seeds", "1", "--snr", "inf",
                   "--expect", reduced.upper()) == reduced + "\n"
    other = format(int(reduced, 16) ^ 1, "064x")
    out = subprocess.run([sys.executable, str(TOOL), "--seeds", "1",
                          "--snr", "inf", "--expect", other],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 1
    assert out.stdout == reduced + "\n"
    assert out.stderr == (f"result digest differs: expected {other}, "
                          f"got {reduced}\n")


def test_result_hash_rejects_an_expected_digest_that_is_not_one():
    out = subprocess.run([sys.executable, str(TOOL), "--expect",
                          "e7639b82"], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 2 and out.stdout == ""
    assert "--expect must be a SHA-256 digest, 64 hex digits" in out.stderr
