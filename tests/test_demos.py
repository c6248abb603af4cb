"""Every demo script runs to completion and prints exactly the bytes pinned
here, by SHA-256."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_sequences_and_lorenz.py": "06445bf6278afc0062627a1fcd5e5475b8acb650a5bef1d45db82fb9e2971366",
    "02_transfer_plans.py": "549ee1063489ff87e319eabb3a02841eb97ffa4fb360905e0fa322fe97921e05",
    "03_branch_moves.py": "2150862ea029b33af014ed836468d63874dfc2903745ab4085c1e4aba2c0a7dc",
    "04_realization.py": "6d3017769e25a50329d645199e87891b3adbf9634c545365d8d3c09975d94b8f",
    "05_census_and_enumeration.py": "93cfb2e5c3f342a9a948ed3d43ad7ef52bc4e9a72c301f29abb215dc6255684d",
    "06_order_structure.py": "f8deb05c1556bd250afb0cd26a4dbeb3338d8af08acfa70c340a72b106632650",
    "07_reachability_checks.py": "2ff55b1dbeabf5e1a3dfdca3e527bb5c5459c5edc45e870fca41131ab530534e",
}


def test_every_demo_is_pinned():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.name]
