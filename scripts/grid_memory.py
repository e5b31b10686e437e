#!/usr/bin/env python3
"""Traced peak memory and minor page faults of each stage of a pde_check request.

    python3 scripts/grid_memory.py --seed 101            # the oracles PDE cells of cycle 0
    python3 scripts/grid_memory.py --seed 101 --h 0.1    # the same cells at spacing 0.1

Takes the pde_check configs of cycle 0 of the `oracles` stream
(bench/workloads.py at --seed), with their grid spacing replaced by --h if
given, and runs each through parse_config and run_experiment in this process.
A request has four stages: set-up, from its start to the solve_many call;
solve, solve_many (f's values, the PCG and the field assembly); phi.csv, its
write; and verify, the rest of the request.  The cells run in turn RUNS
times untraced, and the last round's minor page faults (ru_minflt) per stage
are printed as the steady state; then once more in turn under tracemalloc,
whose peak per stage is printed in MiB and in grid arrays of m^dim doubles.
Without --seed nothing runs.
"""

from __future__ import annotations

import argparse
import importlib.util
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

from gibbscert import cli

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("set-up", "solve", "phi.csv", "verify")
RUNS = 3  # untraced rounds over the cells; the last one's page faults are printed


def pde_cells(seed: int, h: float | None) -> list[dict]:
    spec = importlib.util.spec_from_file_location("grid_memory_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cells = [raw for raw in workloads.cycle("oracles", seed, 0) if raw["experiment"]["kind"] == "pde_check"]
    if h is not None:
        cells = [{**raw, "grid": {**raw["grid"], "h": h}} for raw in cells]
    return cells


def staged_request(raw: dict, out: Path) -> dict:
    """Run one request; per stage, its minor page faults and, when tracing, its traced peak in bytes."""
    faults, peaks, stages = {}, {}, []

    def enter(stage):
        now = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if stages:
            faults[stages[-1]] = now - faults[stages[-1]]
            if tracemalloc.is_tracing():
                peaks[stages[-1]] = tracemalloc.get_traced_memory()[1]
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        if stage is not None:
            faults[stage] = now
            stages.append(stage)

    class StagedSolver(cli.PotentialSolver):
        def solve_many(self, observables):
            enter("solve")
            return super().solve_many(observables)

    def staged_write(pf, path):
        enter("phi.csv")
        write_phi(pf, path)
        enter("verify")

    solver, write_phi = cli.PotentialSolver, cli.potential_to_csv
    cli.PotentialSolver, cli.potential_to_csv = StagedSolver, staged_write
    try:
        enter("set-up")
        cli.run_experiment(cli.parse_config(raw), out)
        enter(None)
    finally:
        cli.PotentialSolver, cli.potential_to_csv = solver, write_phi
    if tuple(stages) != STAGES:
        raise RuntimeError(f"request ran the stages {stages}, not {list(STAGES)}")
    return {"faults": faults, "peaks": peaks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, help="the oracles stream's seed")
    parser.add_argument("--h", type=float, help="grid spacing for every cell (default: each cell's own)")
    args = parser.parse_args(argv)
    if args.seed is None:
        print("give --seed to measure the oracles pde_check cells of that stream's cycle 0")
        return 0

    cells = pde_cells(args.seed, args.h)
    with tempfile.TemporaryDirectory(prefix="grid-memory-") as tmp:
        for run in range(RUNS):  # the cells in turn, as the stream interleaves them
            faults = [staged_request(raw, Path(tmp) / f"run{run}-cell{k}")["faults"] for k, raw in enumerate(cells)]
        tracemalloc.start()
        try:
            peaks = [staged_request(raw, Path(tmp) / f"traced-cell{k}")["peaks"] for k, raw in enumerate(cells)]
        finally:
            tracemalloc.stop()
    for raw, cell_faults, cell_peaks in zip(cells, faults, peaks):
        cfg = cli.parse_config(raw)
        m = cfg.grid.nodes_per_axis
        array = 8 * m**cfg.model.n_sites
        functions = raw["experiment"]["functions"]
        kinds = ", ".join(f["kind"] for f in functions)
        print(f"m = {m}, {len(functions)} function(s) ({kinds}), grid array {array / 2**20:.2f} MiB")
        print(f"{'stage':<8} {'MiB':>7} {'arrays':>7} {'minflt':>8}")
        for stage in STAGES:
            peak = cell_peaks[stage]
            print(f"{stage:<8} {peak / 2**20:>7.1f} {peak / array:>7.1f} {cell_faults[stage]:>8}")
        peak = max(cell_peaks.values())
        print(f"{'request':<8} {peak / 2**20:>7.1f} {peak / array:>7.1f} {sum(cell_faults.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
