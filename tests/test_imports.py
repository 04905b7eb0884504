import os
import subprocess
import sys
from pathlib import Path

import mslink


def test_import_mslink_loads_no_scipy():
    # scipy's import cost more than the rest of the package's set-up; keep
    # it out of every mslink module, the CLI included
    src = str(Path(mslink.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, mslink, mslink.cli; print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"
