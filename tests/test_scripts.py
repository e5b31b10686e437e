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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_statistics():
    pairs = load_script("bench_pairs")
    parent = [120.0, 120.1, 120.2, 120.3, 120.4, 120.5, 120.6, 120.7, 120.8, 120.9]
    # nine of ten pairs lower by 6 MB, one higher: a claim on a lower-is-better metric
    change = [p - 6.0 for p in parent[:9]] + [121.0]
    s = pairs.compare(parent, change, "lower", 0.1)
    assert s["parent"] == {"q1": 120.225, "median": 120.45, "q3": 120.675}
    assert (s["wins"], s["pairs"]) == (9, 10)
    assert s["median_gain"] == pytest.approx(6.0) and s["parent_iqr"] == pytest.approx(0.45)
    assert s["claim_holds"] and s["bound_verdict"] == "ok"
    # the same runs are no claim if the change fails more operations on any pair
    failed = ([0] * 10, [0] * 9 + [1])
    assert pairs.compare(parent, change, "lower", 0.1, failed)["more_failed"]
    assert not pairs.compare(parent, change, "lower", 0.1, failed)["claim_holds"]
    assert pairs.compare(parent, change, "lower", 0.1, (failed[1], failed[0]))["claim_holds"]
    # eight wins out of ten are not enough, however large the gap
    assert not pairs.compare(parent, change[:8] + [121.0, 121.0], "lower", 0.1)["claim_holds"]
    # ten wins by less than the parent's IQR are not a claim either
    assert not pairs.compare(parent, [p - 0.1 for p in parent], "lower", 0.1)["claim_holds"]
    # higher is better: a 30% fall in throughput breaks a 0.25 bound, a 20% one does not
    rps = [6.0] * 10
    assert pairs.compare(rps, [4.2] * 10, "higher", 0.25)["bound_verdict"] == "exceeded"
    slower = pairs.compare(rps, [4.8] * 10, "higher", 0.25)
    assert slower["bound_verdict"] == "ok" and slower["relative_worse"] == pytest.approx(0.2)
    assert slower["wins"] == 0 and not slower["claim_holds"]
    # a parent whose IQR/|median| (0.4) is wider than the bound cannot rule a change in or out
    noisy = [0.03, 0.03, 0.04, 0.04, 0.05, 0.05, 0.06, 0.06, 0.07, 0.07]
    assert pairs.compare(noisy, [0.05] * 10, "lower", 0.25)["bound_verdict"] == "unresolved"
    assert pairs.compare(noisy, [0.08] * 10, "lower", 0.25)["bound_verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert pairs.compare(noisy, [0.02] * 10, "lower", 0.25)["bound_verdict"] == "ok"


def test_bench_pairs_alternates_and_summarizes():
    pairs = load_script("bench_pairs")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    benchmark["workloads"] = [w for w in benchmark["workloads"] if w["name"] == "oracles"]
    runs = pairs.plan(benchmark, 4, 7)
    assert [(w, s) for w, s, _ in runs] == [("oracles", 7), ("oracles", 8), ("oracles", 9), ("oracles", 10)]
    assert [order[0] for _, _, order in runs] == ["parent", "change", "parent", "change"]
    names = [m["name"] for m in benchmark["end_to_end"]]

    def side(value, digest="d"):
        return {"metrics": dict.fromkeys(names, value), "correct": True, "failed": 0, "known_defect": 0, "digest": digest}

    rows = [{"workload": "oracles", "seed": s, "parent": side(1.0), "change": side(1.0, "e" if s == 9 else "d")}
            for _, s, _ in runs]
    summary = pairs.summarize(rows, benchmark)["oracles"]
    assert set(summary["metrics"]) == set(names)
    assert summary["same_on_both_sides"] == {"correct": True, "failed": True, "known_defect": True, "digest": False}
