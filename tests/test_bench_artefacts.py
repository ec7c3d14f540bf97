"""The out-of-core bench keeps its recorded artefacts.

``BENCH_8.json`` and ``benchmarks/results/outofcore.txt`` record the
2^26 run.  A run at a smaller ``REPRO_OOC_LOGN`` (the CI smoke job's
2^18, a local check) must write size-named files under
``benchmarks/results/`` and leave the record's bytes alone.  The bench
runs on a copy of its files, so the check never writes into the
checkout.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RECORDED = ("BENCH_8.json", "benchmarks/results/outofcore.txt")


def test_small_run_leaves_the_recorded_artefacts(tmp_path):
    for rel in ("benchmarks/__init__.py", "benchmarks/conftest.py",
                "benchmarks/bench_outofcore.py", *RECORDED):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(REPO / rel, tmp_path / rel)
    before = {rel: (tmp_path / rel).read_bytes() for rel in RECORDED}
    env = dict(os.environ, REPRO_OOC_LOGN="12",
               PYTHONPATH=str(REPO / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/bench_outofcore.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    for rel, data in before.items():
        assert (tmp_path / rel).read_bytes() == data, rel
        assert (REPO / rel).read_bytes() == data, rel
    results = tmp_path / "benchmarks" / "results"
    written = json.loads((results / "outofcore_logn12.json").read_text())
    assert written["log2_n"] == 12 and written["correct"]
    assert (results / "outofcore_logn12.txt").exists()
