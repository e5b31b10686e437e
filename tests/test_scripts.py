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


# scripts/output_digest.py's lines for configs/*.json; a change that moves an
# output byte must fail here and re-pin them on purpose
PINNED_DIGESTS = """\
7c191505c05e8c06d92534edd38baf724e24bc204659782a33561a6dff8daca4  algebraic_1d/decay.csv
e35049f15a4d90853bbc0699807725c8e4e1599663fb1e50085505fb1b31d531  algebraic_1d/pairs.csv
14c48a3db27498af6ccf26b788939302f44abd94644cc2b04d983d2623c245c6  algebraic_1d/report.json
28af370967268572fe1e44dd82b1db3163cbde147211387d80e2a167001383f5  bound_report_frustrated_2d/pairs.csv
5fd11d9d3fff0f345dc0ef62fb77c24d31e29bb4fb9e9af8146e62e5839adb98  bound_report_frustrated_2d/report.json
81951c07436b6ef6b42fd07a45a7bca07be1e0c283a5e62daa9c53fd72619c3f  exponential_1d/decay.csv
af711f7c200636d35dd00973fa08eb2d042ea54dc3ae47261c598a955a5e0526  exponential_1d/pairs.csv
d74148fac03d838d7e5bbf22147f0226342a916b081cd48bb7e236ac4b356e83  exponential_1d/report.json
21fed8cc75af8bed8de00b98e34c86b03a0a108e10483d3e5f071747434f31ab  gaussian_sharpness_1d/pairs.csv
19cb19e1c732f1c12362ebc1299e2c690eba4bdc887e08c08bfe0ae898fa36f4  gaussian_sharpness_1d/report.json
7d9033c1183c5701bd648bb4ccc58a65d53e32be77d489e3d96755ba1ad604d4  mcmc_check_1d/pairs.csv
a22d6a339d4a220cc8311911506b3195617451ef757aabd5dffe5c33edb2b6c0  mcmc_check_1d/report.json
e0dc526a8d6b49b4acc87a76ad97b0bbfb120c772879e92490fbed8e5e7176f1  pde_check_2site/phi.csv
b680a25654c57305a28b1678dc58fa70b01741b81cb6c2f788cf8b6f1691f1df  pde_check_2site/report.json
c39d87f3359cc7173c31de7f87d8471e5de901202deec6faa3bd6f4f2d00e2d9  threshold_scan_2d/report.json
"""


def test_config_outputs_match_pinned_digests(capsys):
    assert load_script("output_digest").main() == 0
    assert capsys.readouterr().out == PINNED_DIGESTS


def test_output_digest_of_one_config_prints_its_lines_of_the_full_run(capsys):
    assert load_script("output_digest").main([str(ROOT / "configs" / "pde_check_2site.json")]) == 0
    lines = PINNED_DIGESTS.splitlines(keepends=True)
    assert capsys.readouterr().out == "".join(line for line in lines if "  pde_check_2site/" in line)


# scripts/bound_hierarchy.py's table: the bound family against the exact
# covariance on a 16-site Gaussian ring, every printed digit pinned
PINNED_BOUND_HIERARCHY = """\
dist        exact         full     weighted  exponential     baseline
   0    1.021e+00    1.021e+00    1.446e+00    2.191e+00    1.250e+00
   1    1.031e-01    1.031e-01    5.321e-01    8.061e-01    1.250e+00
   2    1.042e-02    1.042e-02    1.957e-01    2.966e-01    1.250e+00
   3    1.052e-03    1.052e-03    7.201e-02    1.091e-01    1.250e+00
   4    1.063e-04    1.063e-04    2.649e-02    4.014e-02    1.250e+00
   5    1.074e-05    1.074e-05    9.746e-03    1.477e-02    1.250e+00
   6    1.085e-06    1.085e-06    3.585e-03    5.432e-03    1.250e+00
   7    1.107e-07    1.107e-07    1.319e-03    1.998e-03    1.250e+00
   8    2.214e-08    2.214e-08    4.852e-04    7.351e-04    1.250e+00

full-matrix equals the exact covariance (sharp for ferromagnetic Gaussians);
weighted/exponential decay with distance; the baseline ignores coordinates.
"""


def test_bound_hierarchy_output_is_pinned(capsys):
    load_script("bound_hierarchy").main()
    assert capsys.readouterr().out == PINNED_BOUND_HIERARCHY


def test_layer_ab_times_a_tree_against_itself():
    root = str(ROOT)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "layer_ab.py"), "--base", root, "--head", root]
        + ["--workload", "torus-nn", "--seed", "101", "--target", "gibbscert.reporting:emit_pair_table", "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    calls = int(lines[0].split(": ")[1].split(" calls")[0])
    assert calls > 0
    assert lines[-1] == f"bytes equal: yes, on {calls} of {calls} calls"


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
    # nine wins in ten: 2 (C(10,0) + C(10,1)) / 2^10 = 22/1024
    assert s["p_value"] == 22 / 1024
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
    # tied pairs are dropped: 3 wins, 0 losses and 2 ties give 2 C(3,0) / 2^3
    tied = pairs.compare([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 2.0, 3.0, 4.0], "lower", 0.25)
    assert (tied["wins"], tied["p_value"]) == (3, 0.25)
    assert pairs.compare(rps, rps, "higher", 0.25)["p_value"] == 1.0


def test_bench_pairs_alternates_and_summarizes(capsys):
    pairs = load_script("bench_pairs")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    benchmark["workloads"] = [w for w in benchmark["workloads"] if w["name"] == "oracles"]
    runs = pairs.plan(benchmark, 4, 7)
    assert [(w, s) for w, s, _ in runs] == [("oracles", 7), ("oracles", 8), ("oracles", 9), ("oracles", 10)]
    assert [order[0] for _, _, order in runs] == ["parent", "change", "parent", "change"]
    names = [m["name"] for m in benchmark["end_to_end"]]

    def side(value, digest="d", failed=0):
        return {"metrics": dict.fromkeys(names, value), "correct": True, "failed": failed, "known_defect": failed,
                "digest": digest}

    rows = [{"workload": "oracles", "seed": s, "parent": side(1.0), "change": side(1.0, "e" if s == 9 else "d")}
            for _, s, _ in runs]
    summary = pairs.summarize(rows, benchmark)["oracles"]
    assert set(summary["metrics"]) == set(names)
    assert summary["same_on_both_sides"] == {"correct": True, "failed": True, "known_defect": True, "digest": False}
    assert summary["totals"] == dict.fromkeys(("parent", "change"), {"failed": 0, "known_defect": 0})
    # a change that fails fewer requests: each side's totals are reported, not only that they differ
    rows = [{"workload": "oracles", "seed": s, "parent": side(1.0, failed=s % 3), "change": side(1.0)}
            for _, s, _ in runs]
    summary = pairs.summarize(rows, benchmark)["oracles"]
    assert summary["same_on_both_sides"]["failed"] is False
    assert summary["totals"] == {"parent": {"failed": 4, "known_defect": 4}, "change": {"failed": 0, "known_defect": 0}}
    pairs.report({"oracles": summary})
    assert "totals: failed parent 4 change 0, known_defect parent 4 change 0" in capsys.readouterr().out


def test_bench_pairs_records_cpu_seconds(tmp_path, monkeypatch):
    # a stand-in for bench/run.py that burns CPU in a grandchild, then prints
    # the two lines run_bench reads
    pairs = load_script("bench_pairs")
    child = (
        "import json, subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', 'sum(range(3 * 10**7))'], check=True)\n"
        "print('record ' + json.dumps({'known_defect': 0, 'digest': 'd', 'cycles': 1}))\n"
        "print(json.dumps({'metrics': {'throughput_rps': {'value': 1.0}}, 'correct': True, 'attempted': 1, 'failed': 0}))\n"
    )
    real_run = subprocess.run

    def fake_run(cmd, **kwargs):
        return real_run([sys.executable, "-c", child], **kwargs)

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    run = pairs.run_bench(tmp_path, "torus-nn", 1)
    assert run["metrics"] == {"throughput_rps": 1.0} and run["cycles"] == 1
    assert 0.1 < run["cpu_s"] < 60
