import numpy as np
import pytest

from gibbscert import _blas, cli
from gibbscert.cli import parse_config, run_experiment

CONTROLS = _blas._controls()
needs_openblas = pytest.mark.skipif(not CONTROLS, reason="numpy/scipy without bundled OpenBLAS")


def thread_counts():
    return [get() for get, _ in CONTROLS]


@needs_openblas
def test_single_threaded_sets_one_thread_and_restores():
    before = thread_counts()
    with _blas.single_threaded():
        assert thread_counts() == [1] * len(CONTROLS)
    assert thread_counts() == before
    with pytest.raises(RuntimeError):
        with _blas.single_threaded():
            raise RuntimeError("boom")
    assert thread_counts() == before


@needs_openblas
def test_run_experiment_runs_single_threaded(tmp_path, monkeypatch):
    seen = []
    runner = cli._RUNNERS["bound_report"]

    def recording(cfg, out):
        seen.append(thread_counts())
        return runner(cfg, out)

    monkeypatch.setitem(cli._RUNNERS, "bound_report", recording)
    cfg = parse_config(
        {
            "model": {
                "geometry": {"kind": "periodic_grid", "side_lengths": [8]},
                "potential": {"q": 1.0},
                "coupling": {"kind": "nearest_neighbor", "epsilon": 0.2},
            },
            "experiment": {"kind": "bound_report"},
        }
    )
    before = thread_counts()
    report, passed = run_experiment(cfg, tmp_path / "out")
    assert passed
    assert seen == [[1] * len(CONTROLS)]
    assert thread_counts() == before


def test_single_threaded_results_match_unrestricted():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((40, 40))
    a = m @ m.T + 40 * np.eye(40)
    with _blas.single_threaded():
        inside = np.linalg.inv(a)
    np.testing.assert_allclose(inside, np.linalg.inv(a), rtol=1e-12, atol=0)
