#!/usr/bin/env python3
"""The repository benchmark: timed, checked workloads of the twoatom_cbs package.

    python3 perfbench/run.py --workload spectra-wide --seed 1 --seconds 20 --trace 0

Workloads (inputs are generated from --seed; see workloads.py):

- spectra-wide: the four drive regimes of scripts/run_spectra.py through
  `cli.main spectrum --normalize`. The per-frequency resolvent loop does
  nearly all the work, so a faster resolvent or a BLAS-threading change
  shows here and an assembly change does not.
- spectra-scan: seeded weak-to-moderate drives through the library API on
  short 81-point grids. Per-configuration fixed costs (assembly, QRT vectors,
  static LU) are a larger share, so a sweep speed-up that costs more per
  configuration shows here.
- stationary-sweep: the intensity sweep of scripts/run_detuned_sweep.py at a
  seeded detuning, compare-oracles and the cone, all through `cli.main`. No
  spectra: assembly dominates, so a faster `assemble` shows here and a faster
  resolvent sweep does not.

Each run sets up the library in several fresh interpreters (set-up time),
then measures passes over the workload's operations in one process with the
machine's default BLAS threading for --seconds, and checks every output.
With --trace 1 it also runs one pass with spans around the library's public
functions, and repeats that traced pass in a process with
OPENBLAS_NUM_THREADS=1 as the single-thread baseline.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). The lines before it report every metric
by name with its unit, the machine, the generated configurations and any
failed check; the same report, with the spans of a traced run, is written to
perfbench/out/. Measurement acts only on the benchmark's own processes: no
cache dropping and no CPU pinning.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import FACTOR, SOLVE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh interpreters whose set-up time is measured; the median is reported
SETUP_SAMPLES = 5
#: every child must be done by then, so that a run ends within 180 s
DEADLINE_S = 170.0
#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("config_latency_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
)

#: traced layers: (span name, what is reported for it)
LAYERS = (
    ("basis.left_multiplication_table", ("calls", "self_s")),
    ("liouvillian.assemble", ("calls", "self_s")),
    ("steady_state.perturbative_steady_state", ("calls", "self_s")),
    ("steady_state.intensities", ("calls", "self_s")),
    ("spectrum.inelastic_spectrum", ("calls", "self_s")),
    ("spectrum.qrt_initial", ("calls", "self_s")),
    ("config_average.monte_carlo_average", ("calls", "self_s", "samples")),
    ("oracles.alpha_closed_form", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
PROPAGATOR = "steady_state.Propagator"

PER_LAYER = (
    [("basis.cache_fill_s", "s")]
    + [(f"{layer}.{what}", "s" if what.endswith("_s") else "count")
       for layer, whats in LAYERS for what in whats]
    + [(f"{PROPAGATOR}.factorizations", "count"), (f"{PROPAGATOR}.factor_s", "s"),
       (f"{PROPAGATOR}.solves", "count"), (f"{PROPAGATOR}.solve_s", "s"),
       (f"{PROPAGATOR}.factor_gflops", "GFLOP/s"),
       ("spectrum.freq_points", "count"), ("spectrum.points_interpolated", "count"),
       ("cli.output_bytes", "B"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count"),
       ("single_thread.wall_s", "s"), (f"single_thread.{PROPAGATOR}.factor_s", "s"),
       (f"single_thread.{PROPAGATOR}.solve_s", "s"),
       (f"single_thread.{PROPAGATOR}.factor_gflops", "GFLOP/s")]
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Child:
    """A worker process; set-up time runs from its start to its ready line."""

    def __init__(self, args, deadline, env=None):
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - start
            self.ready = json.loads(line) if line.startswith("{") else None
        except BaseException:
            self.stop()
            raise
        if self.ready is None:
            self.finish()
            raise BenchError("worker ended without finishing set-up")

    def finish(self):
        """Rest of the worker's standard output, once it has ended successfully."""
        try:
            out, err = self.proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except BaseException:
            self.stop()
            raise BenchError("worker exceeded the run's time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}:\n{err}")
        return out

    def result(self):
        return json.loads(self.finish().strip().splitlines()[-1])

    def stop(self):
        self.proc.kill()
        self.proc.wait()


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with >= 10 beyond it.

    With fewer than 2 * 10 samples no percentile at or above the median has
    ten samples beyond it; the maximum is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def machine_facts(ready):
    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
        **ready["versions"],
        "blas": ready["blas"],
        "note": "shared machine; the benchmark acts only on its own "
                "processes: no cache dropping, no CPU pinning, default BLAS threading "
                "except in the single-thread baseline",
    }


def end_to_end_metrics(setups, main):
    passes = main["passes"]
    ops = [op for p in passes for op in p["ops"]]
    # one sample per drive configuration; the configurations of one call
    # (an intensity sweep, compare-oracles) each get the call's mean
    latencies = [1e3 * op["latency_s"] / op["configs"] for op in ops for _ in range(op["configs"])]
    tail_value, tail_pct, tail_beyond = tail(latencies)
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "config_latency_ms.p50": statistics.median(latencies),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    points = sum(op["freq_points"] for op in passes[0]["ops"])
    sum_rule = [v for op in ops for k, v in op["fingerprint"].items() if k.endswith("_err")]
    extra = {
        "passes": len(passes),
        "pass_walls_s": walls,
        "config_latency_samples": len(latencies),
        "config_latency_calls": len(ops),
        "config_latency_ms.tail": tail_value,
        "config_latency_tail_percentile": tail_pct,
        "config_latency_tail_beyond": tail_beyond,
        "freq_points_per_pass": points,
        "freq_points_per_s": points / metrics["wall_s"],
        "sum_rule_err_max": max(sum_rule) if sum_rule else None,
    }
    return metrics, extra


def _propagator(traced, prefix=""):
    layers = traced["layers"]
    factor = layers.get(FACTOR, {"calls": 0, "self_s": 0.0})
    solve = layers.get(SOLVE, {"calls": 0, "self_s": 0.0})
    gflops = traced["factor_flops"] / factor["self_s"] / 1e9 if factor["self_s"] > 0 else 0.0
    return {
        f"{prefix}{PROPAGATOR}.factorizations": factor["calls"],
        f"{prefix}{PROPAGATOR}.factor_s": factor["self_s"],
        f"{prefix}{PROPAGATOR}.solves": solve["calls"],
        f"{prefix}{PROPAGATOR}.solve_s": solve["self_s"],
        f"{prefix}{PROPAGATOR}.factor_gflops": gflops,
    }


def per_layer_metrics(cache_fills, main, single):
    traced = main["traced"]
    layers = traced["layers"]
    metrics = {"basis.cache_fill_s": statistics.median(cache_fills)}
    for layer, whats in LAYERS:
        t = layers.get(layer, {"calls": 0, "self_s": 0.0, "count": 0})
        for what in whats:
            metrics[f"{layer}.{what}"] = t["count"] if what == "samples" else t[what]
    metrics.update(_propagator(traced))
    metrics["spectrum.freq_points"] = layers.get("spectrum.inelastic_spectrum", {}).get("count", 0)
    metrics["spectrum.points_interpolated"] = sum(op["interpolated"] for op in traced["ops"])
    metrics["cli.output_bytes"] = sum(op["output_bytes"] for op in traced["ops"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - statistics.median(
        p["wall_s"] for p in main["passes"])
    metrics["trace.spans"] = len(traced["spans"])
    st = single["traced"]
    metrics["single_thread.wall_s"] = st["wall_s"]
    st_prop = _propagator(st, "single_thread.")
    for key in ("factor_s", "solve_s", "factor_gflops"):
        name = f"single_thread.{PROPAGATOR}.{key}"
        metrics[name] = st_prop[name]
    return metrics


def run(args):
    if not (ROOT / "src" / "twoatom_cbs" / "__init__.py").is_file():
        raise BenchError(f"no twoatom_cbs source tree under {ROOT / 'src'}")
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", tmp]
        if args.tiny:
            common.append("--tiny")
        ready_facts = []
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            child = Child(["--mode", "setup", "--tmp", tmp], deadline)
            child.finish()
            setups.append(child.setup_s)
            ready_facts.append(child.ready)
        mode = "measure-traced" if args.trace else "measure"
        child = Child(["--mode", mode, "--seconds", str(args.seconds), *common], deadline)
        setups.append(child.setup_s)
        ready_facts.append(child.ready)
        main = child.result()
        if args.trace:
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
            single_child = Child(["--mode", "traced", *common], deadline, env=env)
            single = single_child.result()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs = [op for p in main["passes"] for op in p["ops"]]
    if args.trace:
        runs += main["traced"]["ops"] + single["traced"]["ops"]
    failed = [op for op in runs if op["problems"]]
    e2e, extra = end_to_end_metrics(setups, main)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(ready_facts[-1]),
        "configs": main["configs"],
        "setup_samples_s": setups,
        "end_to_end": e2e,
        "details": dict(extra, ops_failed_frac=len(failed) / len(runs)),
        "failures": [{"name": op["name"], "problems": op["problems"]} for op in failed],
        "fingerprint": {op["name"]: op["fingerprint"] for op in main["passes"][0]["ops"]},
        "op_latencies_s": [[[op["name"], op["latency_s"]] for op in p["ops"]]
                           for p in main["passes"]],
    }
    if args.trace:
        report["per_layer"] = per_layer_metrics([r["cache_fill_s"] for r in ready_facts],
                                                main, single)
        report["single_thread_blas"] = single_child.ready["blas"]
        report["spans"] = {"fields": ["name", "start", "end", "parent", "op", "count"],
                           "default_threads": main["traced"]["spans"],
                           "single_thread": single["traced"]["spans"]}
    metrics = report["per_layer"] if args.trace else e2e
    units = dict(PER_LAYER if args.trace else END_TO_END)
    return report, {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def print_report(report, path):
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    m = report["machine"]
    print(f"machine: {m['nproc']} cpus ({m['cpu_model']}), python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, load {m['loadavg_at_start']}")
    for lib, facts in m["blas"].items():
        print(f"  blas {lib}: {facts}")
    print("configs: " + "; ".join(c["name"] for c in report["configs"]))
    for name, unit in END_TO_END:
        print(f"  {name} = {report['end_to_end'][name]:.6g} {unit}")
    d = report["details"]
    if d["freq_points_per_pass"]:
        print(f"  freq_points_per_s = {d['freq_points_per_s']:.6g} 1/s")
    print(f"  ops_failed_frac = {d['ops_failed_frac']:.6g}")
    if d["sum_rule_err_max"] is not None:
        print(f"  sum_rule_err_max = {d['sum_rule_err_max']:.6g}")
    print(f"  config_latency_ms.tail = {d['config_latency_ms.tail']:.6g} ms "
          f"(p{d['config_latency_tail_percentile']:.4g} of {d['config_latency_samples']} "
          f"configurations in {d['config_latency_calls']} calls; {d['passes']} passes)")
    for name, unit in PER_LAYER if "per_layer" in report else ():
        print(f"  {name} = {report['per_layer'][name]:.6g} {unit}")
    for failure in report["failures"]:
        print(f"FAILED {failure['name']}: {'; '.join(failure['problems'])}")
    print(f"report: {path}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one cheap operation of each kind, for the benchmark's own tests")
    args = ap.parse_args(argv)
    try:
        report, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))
    print_report(report, path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
