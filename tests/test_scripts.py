"""Each script under scripts/ runs to completion against the library."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gibbscert.cli import parse_config, run_experiment
from gibbscert.reporting import report_bytes

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_exits_zero(script, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,  # scripts write their files under the working directory
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_output_digest_hashes_report_without_meta(tmp_path):
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    config = json.loads((ROOT / "configs" / "gaussian_sharpness_1d.json").read_text())
    report, _ = run_experiment(parse_config(config), tmp_path)
    written = (tmp_path / "report.json").read_bytes()
    assert b'"meta"' in written
    assert digest.without_meta(written) == report_bytes(report, drop_meta=True) + b"\n"
