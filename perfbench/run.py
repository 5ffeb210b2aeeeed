"""MilBack benchmark: the ``session``, ``fleet`` and ``corpus`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload session --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json`` with tracing off; ``--trace 1`` alternates untraced
and traced ops and reports the per-layer metrics.
``--workload all`` runs every workload in this one process. The last
line of standard output is the JSON result; the exit code is 1 when an
output check failed and 2 when the program or its arguments are
missing. ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

#: Pinned in this process before NumPy loads, and in every process it starts.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: A run stops early after this many failed ops.
MAX_FAILURES = 10


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _probe_command(workload: str, seed: int, tiny: bool) -> list[str]:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--probe", workload, "--seed", str(seed)]
    return command + (["--tiny"] if tiny else [])


def measure_setup(workload: str, seed: int, tiny: bool, probes: int) -> list[float]:
    """Wall seconds from spawning a fresh interpreter to its ``ready`` line."""
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(
            _probe_command(workload, seed, tiny),
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        samples.append(elapsed)
    return samples


def measure_imports(workload: str, seed: int, tiny: bool) -> dict[str, float]:
    """Self import seconds of the set-up probe, summed per top-level package."""
    command = _probe_command(workload, seed, tiny)
    command[1:1] = ["-X", "importtime"]
    proc = subprocess.run(
        command, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import-time probe for {workload} failed: {proc.stderr[-400:]}")
    totals = {"repro": 0.0, "scipy": 0.0, "numpy": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, module = (part.strip() for part in line[len("import time:"):].split("|"))
        package = module.split(".")[0]
        if package in totals and self_us.isdigit():
            totals[package] += int(self_us) / 1e6
    return totals


def probe(workload_name: str, seed: int, tiny: bool) -> int:
    """Set-up probe body: import, build op 0's inputs, warm the pool."""
    import workloads
    from repro.parallel import PersistentPool

    cls, unit = workloads.WORKLOADS[workload_name]
    cls(workload_name, unit, tiny=tiny).prepare(seed)
    pool = None
    if workload_name == "corpus":
        pool = PersistentPool(max_workers=workloads.cpu_count()).warm()
    print("ready", flush=True)
    if pool is not None:
        pool.shutdown()
    return 0


# --- the closed loop ----------------------------------------------------------------------


class Pass:
    """Ops of one closed-loop pass: input index, latency and outcome of each."""

    def __init__(self) -> None:
        self.indices: list[int] = []
        self.latencies_s: list[float] = []
        self.outcomes: list = []
        self.wall_s = 0.0

    @property
    def failures(self) -> int:
        return sum(bool(o.problems) for o in self.outcomes)

    def run(self, workload, seed: int, index: int, trace=None) -> None:
        """Run op ``index`` once, under ``trace`` when one is given."""
        from workloads import Outcome

        inputs = workload.make_input(seed, index)
        start = time.perf_counter()
        try:
            outcome = trace.measure(workload.run, inputs) if trace else workload.run(inputs)
        except Exception as exc:  # the op failed: count it, keep measuring
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(digest="raised", problems=[f"raised {type(exc).__name__}: {exc}"])
        self.indices.append(index)
        self.latencies_s.append(time.perf_counter() - start)
        self.outcomes.append(outcome)


def closed_loop(workload, seed: int, seconds: float) -> Pass:
    """Run op 0, 1, ... back to back while the median op still fits in ``seconds``."""
    result = Pass()
    start = time.perf_counter()
    index = 0
    while True:
        result.run(workload, seed, index)
        index += 1
        elapsed = time.perf_counter() - start
        if (
            result.failures >= MAX_FAILURES
            or elapsed + statistics.median(result.latencies_s) > seconds
        ):
            break
    result.wall_s = time.perf_counter() - start
    return result


def traced_cycles(workload, seed: int, seconds: float) -> tuple[list[Pass], dict[str, float]]:
    """Run each op untraced and traced; return the passes and per-layer metrics.

    Cycle ``k`` runs op ``k`` twice, untraced and traced, in alternating
    order, so both runs see the same machine conditions. The process
    caches are emptied before each run, so both do the same work and
    the difference is the tracing overhead. For ``corpus`` the cycle
    also runs op ``k`` serially under the trace: spans in forked
    workers are not recorded, so the sim/kernel split of the corpus
    comes from that serial run.
    """
    import layers
    from repro import obs
    from repro.sim.cache import clear_caches

    trace = layers.LayerTrace()
    registry = obs.get_registry()
    deltas: dict[str, float] = {}

    def run_op(run_pass: Pass, index: int, traced: bool) -> None:
        clear_caches()
        if not traced:
            run_pass.run(workload, seed, index)
            return
        before = registry.snapshot()
        run_pass.run(workload, seed, index, trace)
        _add_counter_deltas(deltas, before, registry.snapshot())

    untraced, traced, serial = Pass(), Pass(), Pass()
    cycle_s: list[float] = []
    start = time.perf_counter()
    cycle = 0
    while True:
        cycle_start = time.perf_counter()
        order = [(untraced, False), (traced, True)]
        for run_pass, on in order if cycle % 2 == 0 else reversed(order):
            run_op(run_pass, cycle, on)
        if workload.pool is not None:
            pool, workload.pool, workload.workers = workload.pool, None, 1
            try:
                run_op(serial, cycle, True)
            finally:
                workload.pool, workload.workers = pool, pool.max_workers
        cycle_s.append(time.perf_counter() - cycle_start)
        cycle += 1
        failures = untraced.failures + traced.failures + serial.failures
        elapsed = time.perf_counter() - start
        if failures >= MAX_FAILURES or elapsed + statistics.median(cycle_s) > seconds:
            break

    metrics = layer_metrics(trace, deltas)
    metrics["trace.overhead_frac"] = sum(traced.latencies_s) / sum(untraced.latencies_s) - 1.0
    return [p for p in (untraced, traced, serial) if p.outcomes], metrics


def check_outputs(name: str, seed: int, passes: list[Pass], tiny: bool) -> tuple[int, int, list[str]]:
    """Attempted ops, failed ops and the problems found, references included."""
    import references

    expected = [] if tiny else references.load().get(name, {}).get(str(seed), [])
    attempted = failed = 0
    problems: list[str] = []
    first_digest: dict[int, str] = {}
    for run_pass in passes:
        for index, outcome in zip(run_pass.indices, run_pass.outcomes):
            found = list(outcome.problems)
            if index < len(expected) and outcome.digest != expected[index]:
                found.append(f"output digest {outcome.digest} != reference {expected[index]}")
            if first_digest.setdefault(index, outcome.digest) != outcome.digest:
                found.append("output differs between two runs of the same input")
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"op {index}: {p}" for p in found)
    return attempted, failed, problems


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated inside the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quality(outcomes: list) -> dict[str, float]:
    """Output-quality figures printed beside the timings."""
    summary: dict[str, float] = {}
    packets = sum(o.quality.get("packets", 0.0) for o in outcomes)
    if packets:
        summary["pkt_delivery"] = sum(o.quality.get("delivered", 0.0) for o in outcomes) / packets
    for key, label in (("range_err_cm", "range_err_p50_cm"), ("orient_err_deg", "orient_err_p50_deg")):
        values = [o.quality[key] for o in outcomes if key in o.quality]
        if values:
            summary[label] = statistics.median(values)
    return summary


def peak_rss_mb(pool) -> float:
    """Peak RSS of this process plus the pool's live workers."""
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pool.worker_pids() if pool is not None else []:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


# --- one workload -------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Measure one workload; return its metrics, checks and context."""
    import manifest
    import workloads
    from repro.parallel import PersistentPool

    cls, unit = workloads.WORKLOADS[name]
    workload = cls(name, unit, tiny=tiny, work_dir=WORK_DIR)
    metrics: dict[str, float] = {}
    if trace:
        imports = measure_imports(name, seed, tiny)
        metrics.update({f"setup.import_{pkg}_s": value for pkg, value in imports.items()})
    else:
        setup = measure_setup(name, seed, tiny, 1 if tiny else SETUP_PROBES)
        metrics["setup_s"] = statistics.median(setup)

    spawn_s = 0.0
    if name == "corpus":
        workload.workers = workloads.cpu_count()
        workload.pool = PersistentPool(max_workers=workload.workers)
        start = time.perf_counter()
        workload.pool.warm()
        spawn_s = time.perf_counter() - start
    try:
        workload.prepare(seed)
        workload.warm_up(seed)
        if trace:
            passes, layer = traced_cycles(workload, seed, seconds)
            metrics.update(layer)
            metrics["parallel.spawn_s"] = spawn_s
        else:
            measured = closed_loop(workload, seed, seconds)
            passes = [measured]
            latencies_ms = [s * 1000.0 for s in measured.latencies_s]
            metrics["op_p50_ms"] = statistics.median(latencies_ms)
            metrics["op_p90_ms"] = _quantile(latencies_ms, 90)
            metrics["work_per_s"] = sum(o.work for o in measured.outcomes) / measured.wall_s
            metrics["peak_rss_mb"] = peak_rss_mb(workload.pool)
    finally:
        workload.close()

    attempted, failed, problems = check_outputs(name, seed, passes, tiny)
    outcomes = [o for p in passes for o in p.outcomes]
    return {
        "workload": name,
        "unit": unit,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "ops": len(passes[0].outcomes),
        "latencies_ms": [round(s * 1000.0, 3) for p in passes for s in p.latencies_s],
        "quality": quality(outcomes),
        "digests": {
            str(index): outcome.digest
            for run_pass in passes
            for index, outcome in zip(run_pass.indices, run_pass.outcomes)
        },
        "manifest": manifest.collect(seed, workload.workers, THREAD_ENV),
    }


def _add_counter_deltas(deltas: dict[str, float], before: dict, after: dict) -> None:
    for key, entry in after.items():
        if entry.get("type") == "counter":
            old = before.get(key, {}).get("value", 0.0)
            deltas[key] = deltas.get(key, 0.0) + entry["value"] - old


def _sum_counter(deltas: dict[str, float], name: str, **labels: str) -> float:
    total = 0.0
    for key, value in deltas.items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        tags = dict(item.split("=", 1) for item in rest.rstrip("}").split(",") if item)
        if all(tags.get(k) == v for k, v in labels.items()):
            total += value
    return total


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


#: Span group -> name of its self-time metric, where that is not ``<group>.self_s``.
SELF_TIME_NAMES = {
    "parallel.wait": "parallel.wait_s",
    "datasets.write": "datasets.write_s",
    "datasets.validate": "datasets.validate_s",
}


def layer_metrics(trace, deltas: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from span totals and counter deltas."""
    metrics: dict[str, float] = {}
    for group in trace.calls:
        metrics[f"{group}.calls"] = float(trace.calls[group])
        metrics[SELF_TIME_NAMES.get(group, f"{group}.self_s")] = trace.self_s[group]
    netsim_hits = _sum_counter(deltas, "cache.hits", cache="netsim_link")
    netsim_misses = _sum_counter(deltas, "cache.misses", cache="netsim_link")
    metrics["netsim.link_cache_hit_ratio"] = _ratio(netsim_hits, netsim_misses)
    metrics["sim.cache_hit_ratio"] = _ratio(
        _sum_counter(deltas, "cache.hits") - netsim_hits,
        _sum_counter(deltas, "cache.misses") - netsim_misses,
    )
    metrics["protocol.arq.retries"] = _sum_counter(deltas, "protocol.arq.retries")
    metrics["parallel.chunks"] = _sum_counter(deltas, "parallel.chunks")
    metrics["parallel.bytes_shipped"] = _sum_counter(deltas, "parallel.bytes_shipped")
    metrics["parallel.fallbacks"] = _sum_counter(deltas, "parallel.fallbacks")
    metrics["parallel.breaks"] = _sum_counter(deltas, "parallel.pool.breaks")
    metrics["datasets.bytes_written"] = _sum_counter(deltas, "datasets.shard_bytes")
    metrics["trace.wall_s"] = trace.wall_s
    metrics["trace.unattributed_s"] = trace.unattributed_s
    return metrics


# --- reporting ----------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(results: list[dict], spec: dict, trace: bool, prefix: bool) -> dict:
    """The final JSON object: exactly the metrics ``BENCHMARK.json`` lists."""
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for result in results:
        for entry in declared:
            key = f"{result['workload']}.{entry['name']}" if prefix else entry["name"]
            metrics[key] = {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def print_report(result: dict, spec: dict, trace: bool) -> None:
    """Human-readable lines: context, checks, metrics by name with unit."""
    import layers

    name = result["workload"]
    print(f"# manifest {json.dumps(result['manifest'], sort_keys=True)}")
    print(
        f"# {name}: {result['ops']} ops, {result['attempted']} checked, "
        f"{result['failed']} failed (failed_frac {result['failed_frac']:.4f}); "
        f"work_per_s counts {result['unit']}"
    )
    for problem in result["problems"][:20]:
        print(f"#   check failed: {problem}")
    for key, value in sorted(result["quality"].items()):
        print(f"#   quality {key} = {value:.6g}")
    units = {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}
    for key in sorted(set(result["metrics"]) - set(units)):
        print(f"#   not in BENCHMARK.json: {key} = {result['metrics'][key]:.6g}")
    for key, unit in units.items():
        group = next((g for g in layers.ENTRY_POINTS if key.startswith(g + ".")), None)
        layer = f" [{layers.layer_of(group)}]" if trace and group else ""
        print(f"{name} {key} = {result['metrics'][key]:.6g} {unit}{layer}")


def write_result(result: dict, seed: int, trace: bool) -> None:
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"result-{result['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def _stop_resource_tracker() -> None:
    """Reap the shared-memory resource tracker the pool may have started."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def bootstrap() -> bool:
    """Pin threads and put ``src`` on the path; False when there is no program."""
    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        return False
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["session", "fleet", "corpus", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (seconds, not minutes)")
    parser.add_argument("--probe", choices=["session", "fleet", "corpus"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not bootstrap():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    if args.probe:
        return probe(args.probe, args.seed, args.tiny)
    if args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            print_report(result, spec, bool(args.trace))
            write_result(result, args.seed, bool(args.trace))
            results.append(result)
    finally:
        _stop_resource_tracker()
    line = result_line(results, spec, bool(args.trace), prefix=args.workload == "all")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
