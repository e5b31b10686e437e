"""Time one function of two gibbscert source trees on the calls of one bench cycle.

    python3 scripts/layer_ab.py --base OLD --head NEW --workload torus-nn --seed 101 \\
        --target gibbscert.reporting:emit_pair_table --repeats 5

Each tree's src/gibbscert is loaded as a package of its own, so both versions
run in one process.  Cycle 0 of the workload's request stream (the base
tree's bench/workloads.py at --seed) runs once through the base tree's
parse_config and run_experiment, with the target rebound in every base module
that holds it, to record the arguments of each call.  Then the base and the
head target are called on every recorded call, --repeats times, alternating
which tree goes first.  It prints each call's median time in both trees,
their sums per cycle and the head/base ratio.  This shows a layer's change
below the host noise of the end-to-end bench.

When the target's second argument is a path (a writer such as
emit_pair_table), each tree writes its own file, and a last line says
whether both wrote the same bytes; the exit status is 1 if they did not.  A
directory (run_experiment's out_dir) is compared file by file, report.json
without its "meta" entry, as the base tree's reporting.report_bytes encodes
it with drop_meta=True.  A recorded ExperimentConfig is re-parsed from its
echo by each tree's own parse_config before each timed call, so neither tree
reads the other's cached model state; every other recorded argument is
passed as it is, so a target that changes its arguments is timed on the
changed ones.  Without --base and --head nothing runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_module(name: str, path: Path, package_dir: Path | None = None):
    """The module or package at path, registered as sys.modules[name]."""
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_package(tree: Path, name: str):
    """tree's src/gibbscert as the package `name`."""
    src = tree / "src" / "gibbscert"
    return load_module(name, src / "__init__.py", src)


def target_of(package: str, target: str):
    """gibbscert.<module>:<function> of the package loaded as `package`."""
    module, _, function = target.partition(":")
    root, _, rest = module.partition(".")
    if root != "gibbscert" or not function:
        raise SystemExit(f"--target {target!r} is not gibbscert.<module>:<function>")
    return getattr(importlib.import_module(f"{package}.{rest}" if rest else package), function)


def record_calls(package: str, function) -> list:
    """Rebind function in every loaded module of package to a wrapper that records each call's arguments."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, recording)
    return calls


def same_output(base: Path, head: Path, report_bytes) -> bool:
    """Whether two written files, or two directories file by file, hold the same bytes; report.json without meta."""

    def content(path: Path) -> bytes:
        if path.name == "report.json":
            return report_bytes(json.loads(path.read_bytes()), drop_meta=True)
        return path.read_bytes()

    if not base.is_dir():
        return content(base) == content(head)
    names = sorted(p.name for p in base.iterdir())
    return names == sorted(p.name for p in head.iterdir()) and all(content(base / n) == content(head / n) for n in names)


def timed(function, args, kwargs) -> float:
    gc.collect()
    start = time.perf_counter()
    function(*args, **kwargs)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="the parent tree")
    parser.add_argument("--head", type=Path, help="the changed tree")
    parser.add_argument("--workload", default="torus-nn", help="a workload of bench/workloads.py (default torus-nn)")
    parser.add_argument("--seed", type=int, default=101, help="the stream's seed (default 101)")
    parser.add_argument("--target", default="gibbscert.reporting:emit_pair_table", help="gibbscert.<module>:<function>")
    parser.add_argument("--repeats", type=int, default=5, help="calls per tree and recorded call (default 5)")
    args = parser.parse_args(argv)
    if args.base is None or args.head is None:
        print(f"give --base and --head to time {args.target} in both trees on {args.workload}")
        return 0

    workloads = load_module("layer_ab_workloads", args.base / "bench" / "workloads.py")
    load_package(args.base, "base_gibbscert")
    load_package(args.head, "head_gibbscert")
    cli = importlib.import_module("base_gibbscert.cli")
    parsers = {side: importlib.import_module(f"{side}_gibbscert.cli").parse_config for side in ("base", "head")}
    report_bytes = importlib.import_module("base_gibbscert.reporting").report_bytes
    functions = {side: target_of(f"{side}_gibbscert", args.target) for side in ("base", "head")}
    calls = record_calls("base_gibbscert", functions["base"])

    times = {"base": [], "head": []}
    equal = []
    with tempfile.TemporaryDirectory(prefix="layer-ab-") as tmp:
        for k, raw in enumerate(workloads.cycle(args.workload, args.seed, 0)):
            cli.run_experiment(cli.parse_config(raw), Path(tmp) / f"request{k}")
        if not calls:
            print(f"{args.target} was not called in cycle 0 of {args.workload}")
            return 1
        for k, (call_args, kwargs) in enumerate(calls):
            writer = len(call_args) > 1 and isinstance(call_args[1], (str, os.PathLike))
            paths = {side: Path(tmp) / f"{side}{k}{Path(call_args[1]).suffix}" for side in times} if writer else {}
            samples = {side: [] for side in times}
            config = isinstance(call_args[0], cli.ExperimentConfig)
            for r in range(args.repeats):
                for side in ("base", "head") if (r + k) % 2 == 0 else ("head", "base"):
                    side_args = (call_args[0], paths[side], *call_args[2:]) if writer else call_args
                    if config:
                        side_args = (parsers[side](call_args[0].echo), *side_args[1:])
                    samples[side].append(timed(functions[side], side_args, kwargs))
            for side in times:
                times[side].append(statistics.median(samples[side]))
            if writer:
                equal.append(same_output(paths["base"], paths["head"], report_bytes))

    print(f"{args.target} on {args.workload} seed {args.seed} cycle 0: {len(calls)} calls, {args.repeats} repeats")
    print(f"{'call':>5} {'base_ms':>10} {'head_ms':>10} {'head/base':>10}")
    for k, (base, head) in enumerate(zip(times["base"], times["head"])):
        print(f"{k:>5} {1e3 * base:>10.3f} {1e3 * head:>10.3f} {head / base:>10.3f}")
    base, head = sum(times["base"]), sum(times["head"])
    print(f"{'sum':>5} {1e3 * base:>10.3f} {1e3 * head:>10.3f} {head / base:>10.3f}")
    if equal:
        print(f"bytes equal: {'yes' if all(equal) else 'no'}, on {sum(equal)} of {len(equal)} calls")
    return 0 if all(equal) else 1


if __name__ == "__main__":
    sys.exit(main())
