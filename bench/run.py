#!/usr/bin/env python3
"""gibbscert benchmark: seeded experiment configs through parse_config -> run_experiment.

    python3 bench/run.py --workload torus-nn --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One closed-loop client sends the requests one after another, in this process,
with BLAS threads capped at the number of usable cores. A request is one
parse_config + run_experiment call, writing report.json and the CSV files
into a scratch directory inside the checkout. `--seconds` is turned into a
whole number of stream cycles from the cycle's time on the reference machine
(workloads.NOMINAL_CYCLE_S), so both sides of a comparison run the same
requests. Every output is checked by bench/oracle.py outside the timed span.

--trace 0 prints the end-to-end metrics; --trace 1 runs each request once
untraced and once traced (alternating which goes first) and prints per-layer
self times and counters per cycle, plus the tracing overhead. The last line of
standard output is the JSON result; the line before it is the run record
(environment, failure accounting, sample counts, output digest).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2  # extra set-ups in fresh processes; setup_s is the median with ours

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# Per-layer self times and counts are given per cycle of the stream.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def set_up(workload: str, scratch: Path):
    """Import the program and run the workload's warm-up requests.

    numpy is first imported here, after cap_threads(), so that BLAS reads the
    caps; the modules of the benchmark that use numpy are imported late for
    the same reason.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from gibbscert import cli

    import workloads

    for raw in workloads.WARMUP[workload]:
        cli.run_experiment(cli.parse_config(raw), scratch / "warmup")
    shutil.rmtree(scratch / "warmup")
    return cli


def probe_setups(workload: str) -> list[float]:
    """Set-up time of fresh processes, run one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=170,
            cwd=ROOT,
            check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def environment(seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    from gibbscert.oracles import potential

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "fft_workers": potential._FFT_WORKERS,
        "seed": seed,
    }


def send_requests(cli, configs: list, scratch: Path, tracer=None) -> list[dict]:
    """Send requests one after another, timing each; check each after its timing."""
    import oracle
    from gibbscert.reporting import report_bytes

    out = scratch / "request"
    done = []
    for raw in configs:
        gc.collect()  # start every request from the same collector state
        start = time.perf_counter()
        try:
            report, _ = cli.run_experiment(cli.parse_config(raw), out)
            error = None
        except Exception as exc:  # a raising request is a failed request
            report, error = None, exc
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end_request()
        if error is None:
            verdict = oracle.check(raw, json.loads((out / "report.json").read_text()), out)
            digest = hashlib.sha256(report_bytes(report, drop_meta=True)).hexdigest()
        else:
            reason = f"raised {type(error).__name__}: {error}"
            verdict = {"failed": True, "known_defect": False, "mcmc_disagree": False, "reasons": [reason]}
            digest = "raised"
        done.append({"kind": raw["experiment"]["kind"], "latency": latency, "digest": digest, **verdict})
        shutil.rmtree(out, ignore_errors=True)
    return done


def tail(latencies: list[float]):
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def accounting(requests: list[dict]) -> dict:
    failed = [r for r in requests if r["failed"]]
    chain = hashlib.sha256()
    for r in requests:
        chain.update(r["digest"].encode())
    return {
        "attempted": len(requests),
        "failed": len(failed),
        "failed_frac": len(failed) / len(requests),
        "known_defect": sum(r["known_defect"] for r in requests),
        "unexpected_failures": [
            {"kind": r["kind"], "reasons": r["reasons"]} for r in failed if not r["known_defect"]
        ],
        "mcmc_disagreements": sum(r["mcmc_disagree"] for r in requests),
        "digest": chain.hexdigest(),
    }


def measure(cli, workload: str, seed: int, cycles: int, scratch: Path):
    import workloads

    requests = []
    for index in range(cycles):
        requests += send_requests(cli, workloads.cycle(workload, seed, index), scratch)
    latencies = [r["latency"] for r in requests]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
    }
    record = {"samples": len(latencies), "tail_percentile": tail_pct}
    return requests, metrics, record


def measure_traced(cli, workload: str, seed: int, cycles: int, scratch: Path):
    import workloads
    from spans import Tracer

    tracer = Tracer()
    requests, wall = [], {False: 0.0, True: 0.0}
    for index in range(cycles):
        for k, raw in enumerate(workloads.cycle(workload, seed, index)):
            # each request runs twice in a row, so host drift cancels in the overhead
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    done = send_requests(cli, [raw], scratch, tracer if traced else None)
                finally:
                    tracer.uninstall()
                wall[traced] += done[0]["latency"]
                requests += done

    self_s = tracer.self_times()
    calls, count = tracer.calls, tracer.count
    metrics = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            metrics[name] = self_s.get(layer, 0.0) / cycles
        elif stat == "calls":
            metrics[name] = calls[layer] / cycles
        elif stat == "per_model":
            metrics[name] = calls[layer] / tracer.distinct[layer] if tracer.distinct[layer] else 0.0
        elif name in ("oracles.potential.residual_max", "oracles.mcmc.acceptance_min"):
            metrics[name] = tracer.extrema.get(name, 0.0)
        elif name == "oracles.mcmc.us_per_step":
            steps = count["oracles.mcmc.steps"]
            metrics[name] = 1e6 * self_s.get("oracles.mcmc", 0.0) / steps if steps else 0.0
        elif name == "trace.overhead_s":
            metrics[name] = (wall[True] - wall[False]) / cycles
        else:
            metrics[name] = count[name] / cycles
    record = {
        "untraced_wall_s": wall[False],
        "traced_wall_s": wall[True],
        "spans": len(tracer.spans),
        "bookkeeping_s": self_s.get("trace.bookkeeping", 0.0),
    }
    return requests, metrics, record


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            summary[f"{workload}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gibbscert" / "__init__.py").is_file():
        print(f"gibbscert sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = cap_threads()
    sys.path.insert(0, str(BENCH))
    scratch = ROOT / ".bench_out" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        cli = set_up(args.workload, scratch)
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        import workloads

        nominal = workloads.NOMINAL_CYCLE_S[args.workload]
        if args.trace:
            cycles = max(1, int(args.seconds / (2 * nominal)))
            requests, metrics, record = measure_traced(cli, args.workload, args.seed, cycles, scratch)
        else:
            setups = [setup_s] + probe_setups(args.workload)
            cycles = max(1, int(args.seconds / nominal))
            requests, metrics, record = measure(cli, args.workload, args.seed, cycles, scratch)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["setup_samples_s"] = setups
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    acct = accounting(requests)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}, seed {args.seed}, cycles {cycles}, requests {acct['attempted']}, "
          f"trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'failed_frac':34s} {acct['failed_frac']:14.6g} 1 "
              f"({acct['failed']}/{acct['attempted']}, {acct['known_defect']} of them the known clamp defect)")
        print(f"  samples {record['samples']}, latency_tail_s is p{record['tail_percentile']:.1f}")
    record.update(acct, workload=args.workload, cycles=cycles, env=environment(args.seed, nproc))
    print("record " + json.dumps(record))
    result = {
        "correct": not acct["unexpected_failures"],
        "attempted": acct["attempted"],
        "failed": acct["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
