"""Every narrative script under ``demos/`` runs to completion without a numpy
warning and prints exactly the bytes pinned here.

A changed digest is a change in what a demo shows: find out why before
touching a value.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_fuzzy_numbers_and_cuts.py": "47dd71c341c3996c37c408bd2a86ed13c19e3d9f92e8fd9340562cf1f57c3dfd",
    "02_expressions.py": "88258b2e9c68bd75fddf7dcb7611e0c8ecc59eaa58db81ceabc136db4feb0f82",
    "03_envelopes_and_gamma.py": "4f36f985d4bbe7e4b815627e422ecf45395efa00b1df534f75ffb87e0cb056ec",
    "04_full_verification.py": "c7eb006e2eb26338fb9f33032460c9b2120055340f0485ec8eb5a5a1466dea1e",
}


def test_every_demo_is_pinned():
    assert sorted(d.name for d in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.name]
