#!/usr/bin/env python3
"""Traced peak memory, wall time and minor page faults of each stage of a pde_check request.

    python3 scripts/grid_memory.py --seed 101            # the oracles PDE cells of cycle 0
    python3 scripts/grid_memory.py --seed 101 --h 0.1    # the same cells at spacing 0.1

Takes the pde_check configs of cycle 0 of the `oracles` stream
(bench/workloads.py at --seed), with their grid spacing replaced by --h if
given, and runs each through parse_config and run_experiment in this process.
A request has four stages: set-up, from its start to the solve_many call;
solve, solve_many (f's values, the PCG and the field assembly); phi.csv, its
write; and verify, the rest of the request.  The cells run in turn RUNS
times untraced, and the last round's wall time and minor page faults
(ru_minflt) per stage are printed as the steady state; then once more in
turn under tracemalloc, whose peak per stage is printed in MiB and in grid
arrays of m^dim doubles.  tracemalloc does not see SuperLU's factor of the
V-cycle's last level, so each cell's header also gives that factor's
nonzeros in L + U and their bytes, FACTOR_BYTES per nonzero, and the median
wall time of BUILDS builds of it (the level's operator, its pin and the
factor, _Level.direct_solver), from a solver built for the cell after the
rounds.  Without --seed nothing runs.
"""

from __future__ import annotations

import argparse
import importlib.util
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from gibbscert import cli

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("set-up", "solve", "phi.csv", "verify")
RUNS = 3  # untraced rounds over the cells; the last one's page faults and times are printed
FACTOR_BYTES = 12  # per nonzero of SuperLU's L + U: a double and a 32-bit row index
BUILDS = 5  # timed builds of the last level's factor; the median is printed


def pde_cells(seed: int, h: float | None) -> list[dict]:
    spec = importlib.util.spec_from_file_location("grid_memory_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cells = [raw for raw in workloads.cycle("oracles", seed, 0) if raw["experiment"]["kind"] == "pde_check"]
    if h is not None:
        cells = [{**raw, "grid": {**raw["grid"], "h": h}} for raw in cells]
    return cells


def staged_request(raw: dict, out: Path) -> dict:
    """Run one request; per stage, its minor page faults, its wall time in s and, when tracing, its traced peak in bytes."""
    faults, seconds, peaks, stages = {}, {}, {}, []

    def enter(stage):
        now, clock = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        if stages:
            faults[stages[-1]] = now - faults[stages[-1]]
            seconds[stages[-1]] = clock - seconds[stages[-1]]
            if tracemalloc.is_tracing():
                peaks[stages[-1]] = tracemalloc.get_traced_memory()[1]
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        if stage is not None:
            faults[stage], seconds[stage] = now, clock
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
    return {"faults": faults, "seconds": seconds, "peaks": peaks}


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
            steady = [staged_request(raw, Path(tmp) / f"run{run}-cell{k}") for k, raw in enumerate(cells)]
        tracemalloc.start()
        try:
            peaks = [staged_request(raw, Path(tmp) / f"traced-cell{k}")["peaks"] for k, raw in enumerate(cells)]
        finally:
            tracemalloc.stop()
    for raw, cell, cell_peaks in zip(cells, steady, peaks):
        cfg = cli.parse_config(raw)
        m = cfg.grid.nodes_per_axis
        array = 8 * m**cfg.model.n_sites
        level = cli.PotentialSolver(cfg.model, cfg.grid).levels[-1]
        builds = []
        for _ in range(BUILDS):
            start = time.perf_counter()
            lu = level.direct_solver().lu
            builds.append(time.perf_counter() - start)
        nnz = lu.L.nnz + lu.U.nnz
        functions = raw["experiment"]["functions"]
        kinds = ", ".join(f["kind"] for f in functions)
        print(
            f"m = {m}, {len(functions)} function(s) ({kinds}), grid array {array / 2**20:.2f} MiB, "
            f"coarse factor {nnz} nonzeros, {FACTOR_BYTES * nnz / 2**20:.2f} MiB, "
            f"built in {1e3 * statistics.median(builds):.1f} ms"
        )
        print(f"{'stage':<8} {'MiB':>7} {'arrays':>7} {'ms':>8} {'minflt':>8}")
        for stage in STAGES:
            peak = cell_peaks[stage]
            print(
                f"{stage:<8} {peak / 2**20:>7.1f} {peak / array:>7.1f} "
                f"{1e3 * cell['seconds'][stage]:>8.1f} {cell['faults'][stage]:>8}"
            )
        peak = max(cell_peaks.values())
        total = 1e3 * sum(cell["seconds"].values())
        print(f"{'request':<8} {peak / 2**20:>7.1f} {peak / array:>7.1f} {total:>8.1f} {sum(cell['faults'].values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
