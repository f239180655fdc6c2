"""lamsim benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload steady-tpr --seed 1 --trace 0
    python3 perfbench/run.py --workload all      # every workload, metric table

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of one traced pass (plus the tracing overhead
against one untraced pass).  The line before it is a JSON record of the
run: environment, seed, pass and item times, gate failures and the
sha256 of every output.  Metric names and units come from BENCHMARK.json.

The program under test is the lamsim package in src/ of the checkout that
holds this file; the run stops with a nonzero exit code when it is absent.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# The BLAS thread count is held fixed before numpy is first imported: the
# 3x3 and 9x9 products gain nothing from threads on this 2-core class of
# machine, and a fixed count keeps runs comparable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
# Seconds of one untraced pass of either workload on a 2-core x86_64 host:
# 6 to 13 s as other tenants load it.  The pass count follows from
# --seconds alone, so every run of a workload takes the same samples.
PASS_ESTIMATE_S = 11
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 900


class _SetupDone(BaseException):
    """Raised at the first item's entry point by a set-up probe; derived
    from BaseException so lamsim's per-point error isolation lets it
    through."""


def _import_lamsim():
    if not (SRC / "lamsim" / "__init__.py").is_file():
        sys.exit(f"error: lamsim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import lamsim
    if not Path(lamsim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported lamsim from {lamsim.__file__}, "
                 f"not from {SRC}")


def _registry() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "machine": platform.machine()}


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest nearest-rank
    percentile with TAIL_BEYOND samples above it.  Below 2 * TAIL_BEYOND + 1
    samples that percentile would sit at or under the median, so the
    maximum is reported instead (percentile 100, none beyond)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _probe_setup(workload_cls, seed: int, outdir: Path) -> tuple[float, float]:
    """Seconds from the start of this process (before numpy and lamsim are
    imported) until the workload's first item starts, and the host speed
    reference taken right after."""
    import hostspeed
    from tracer import patched

    def stop(*args, **kwargs):
        raise _SetupDone(time.perf_counter() - _T0)

    workload = workload_cls(seed, outdir)
    with patched(*workload.entry, stop):
        try:
            workload.run_pass()
        except _SetupDone as done:
            return done.args[0], hostspeed.sample()
    raise RuntimeError("workload finished without starting an item")


def _setup_samples(workload: str, seed: int,
                   count: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) of fresh probe processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(tuple(map(float, proc.stdout.split()[-2:])))
    return samples


def _remove_outdir(outdir: Path):
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        outdir.parent.rmdir()
    except OSError:  # another run still writes there
        pass


def _layer_metrics(summary: dict, counters: dict, out_bytes: int,
                   overhead_s: float) -> dict:
    def rec(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0})

    expm = rec("linalg.expm")
    values = {
        "linalg.expm.calls": expm["calls"],
        "linalg.expm.self_s": expm["self_s"],
        "linalg.expm.us_per_call":
            1e6 * expm["self_s"] / expm["calls"] if expm["calls"] else 0.0,
        "linalg.expm.flops_computed": counters.get("linalg.expm", 0.0),
        "model.generator.calls": rec("model.generator")["calls"],
        "model.generator.self_s": rec("model.generator")["self_s"],
        "magnus.step.calls": rec("magnus.step")["calls"],
        "magnus.step.self_s": rec("magnus.step")["self_s"],
        "magnus.propagate.self_s": rec("magnus.propagate")["self_s"],
        "periodic.make_plan.self_s": rec("periodic.make_plan")["self_s"],
        "periodic.one_period.calls": rec("periodic.one_period")["calls"],
        "periodic.one_period.self_s": rec("periodic.one_period")["self_s"],
        "periodic.micromotion_mb_computed":
            counters.get("periodic.one_period", 0.0),
        "periodic.convergence_time.self_s":
            rec("periodic.convergence_time")["self_s"],
        "analysis.spectral_gap.self_s":
            rec("analysis.spectral_gap")["self_s"],
        "analysis.rwa_error.self_s": rec("analysis.rwa_error")["self_s"],
        "sweep.steady_state_summary.self_s":
            rec("sweep.steady_state_summary")["self_s"],
        "sweep.run_case.self_s": rec("sweep.run_case")["self_s"],
        "sweep.to_rwf.self_s": rec("sweep.to_rwf")["self_s"],
        "cli.self_s": rec("cli")["self_s"],
        "cli.out_mb": out_bytes / 2 ** 20,
        "trace.overhead_s": overhead_s,
    }
    return values


def _run(args, workload_cls) -> int:
    registry = _registry()["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in registry}
    import hostspeed
    from tracer import Tracer

    # Set-up probes run before the first pass and after every pass, so
    # their median spans the run rather than one moment of host load.
    setup = [] if args.trace else _setup_samples(args.workload, args.seed, 2)
    outdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_cls(args.seed, outdir)
        if args.trace:
            plan = [False, True]
        else:
            plan = [False] * max(MIN_PASSES,
                                 args.seconds // PASS_ESTIMATE_S)
        passes, items, tracer = [], [], Tracer()
        for traced in plan:
            start = time.perf_counter()
            with tracer.installed() if traced else contextlib.nullcontext():
                pass_items, outputs = workload.run_pass()
            wall = time.perf_counter() - start
            if not passes:
                # Read before any verification, whose arrays are the
                # benchmark's and not the program's; later passes repeat
                # the same work.
                rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            workload.verify(pass_items, outputs)
            passes.append({"traced": traced, "wall_s": wall,
                           "items": [(it.key, it.seconds, it.reference_s,
                                      it.errors) for it in pass_items],
                           "digests": dict(workload.digests),
                           "out_bytes": workload.out_bytes})
            items.extend(pass_items)
            if not args.trace:
                setup.extend(_setup_samples(args.workload, args.seed, 1))
    finally:
        _remove_outdir(outdir)

    failed = sum(1 for it in items if it.errors)
    if args.trace:
        untraced, traced = passes
        values = _layer_metrics(tracer.summary(), tracer.counters,
                                traced["out_bytes"],
                                traced["wall_s"] - untraced["wall_s"])
        tail = None
    else:
        # Times are scaled to the host speed reference (hostspeed.py).
        # Each item's median over the passes, and the pass time as their
        # sum: a burst of load the scaling misses is dropped by the median.
        by_key = defaultdict(list)
        for it in items:
            by_key[it.key].append(it.scaled_s)
        item_medians = [statistics.median(v) for v in by_key.values()]
        wall_s = sum(item_medians)
        tail = _tail([it.scaled_s for it in items])
        values = {
            "wall_s": wall_s,
            "items_per_s": len(item_medians) / wall_s,
            "item_p50_s": statistics.median(item_medians),
            "item_tail_s": tail[0],
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(
                hostspeed.scaled(*probe) for probe in setup),
        }
    if set(values) != set(declared):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(declared))} "
                 "differ from BENCHMARK.json")
    for it in items:
        for err in it.errors:
            print(f"FAILED {args.workload} {it.key}: {err}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(), "repeats": len(passes),
        "reference": {"kernel_calls": hostspeed.CALLS,
                      "reference_s": hostspeed.REFERENCE_S},
        "setup_probes_s": setup, "fail_ratio": failed / len(items),
        "item_tail": None if tail is None else
            {"percentile": tail[1], "beyond": tail[2], "samples": len(items)},
        "passes": passes,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(items), "failed": failed,
        "metrics": {k: {"value": values[k], "unit": declared[k]}
                    for k in declared}}))
    return 0


def _run_all(args, names) -> int:
    """Each workload in its own fresh process; a table of every metric."""
    status = 0
    print(f"{'workload':<16} {'metric':<36} {'value':>14}  unit")
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name:<16} exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<36} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<16} {'fail_ratio':<36} "
              f"{result['failed'] / result['attempted']:>14.6g}  "
              f"({result['failed']}/{result['attempted']} items, "
              f"correct={result['correct']})")
        status |= 0 if result["correct"] else 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = _registry()["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _import_lamsim()
    from workloads import WORKLOADS
    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)} or 'all'")
    if args.probe_setup:
        # The probe stops before any output is written.
        print(*_probe_setup(WORKLOADS[args.workload], args.seed,
                            HERE / "out" / "probe"))
        return 0
    return _run(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
