"""The benchmark's trace mode rebinds gibbscert functions by name; a rename in
src/ must fail here rather than break `bench/run.py --trace 1`."""

import importlib
import inspect
import re
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_target_resolves():
    layers = runpy.run_path(str(SPANS))["LAYERS"]  # compiled in memory: writes nothing under bench/
    targets = [t for names, _, _ in layers.values() for t in names]
    assert len(targets) > 20
    for target in targets:
        mod_name, attr = target.split(":")
        assert mod_name.startswith("gibbscert")
        owner = importlib.import_module(mod_name)
        if "." in attr:  # patched on the class, so it must be defined there
            cls_name, meth = attr.split(".")
            value = getattr(owner, cls_name).__dict__.get(meth)
        else:
            value = getattr(owner, attr, None)
        assert inspect.isfunction(value), target


def test_every_traced_writer_takes_the_path_second():
    # the hook that counts bytes written reads the output path as args[1]
    spans = runpy.run_path(str(SPANS))
    writers = [t for names, _, hook in spans["LAYERS"].values() if hook is spans["_bytes_written"] for t in names]
    assert writers
    for target in writers:
        mod_name, attr = target.split(":")
        params = list(inspect.signature(getattr(importlib.import_module(mod_name), attr)).parameters.values())
        assert len(params) >= 2 and params[1].name == "path", target
        assert params[1].kind in (params[1].POSITIONAL_ONLY, params[1].POSITIONAL_OR_KEYWORD), target


def test_potential_attributes_read_by_bench_resolve():
    from gibbscert.oracles import potential

    run_py = (SPANS.parent / "run.py").read_text(encoding="utf-8")
    names = set(re.findall(r"(?<![.\w])potential\.([A-Za-z_]\w*)", run_py))
    assert names  # the environment record reads at least one
    for name in names:
        assert hasattr(potential, name), f"bench/run.py reads potential.{name}"
