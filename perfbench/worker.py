"""One benchmark process: set up the library, run timed passes, check them.

Started by run.py. Prints one JSON line when set-up is done and, unless only
set-up was asked for, one JSON line with the measured passes at the end.
Everything it writes goes to the directory given by --tmp.

    python3 perfbench/worker.py --mode measure --workload spectra-scan --seed 1 \
        --seconds 20 --tmp perfbench/out/tmp
    python3 perfbench/worker.py --record-fingerprint --tmp perfbench/out/tmp

--record-fingerprint runs every operation the workload menus can generate
once and rewrites fingerprint.json; do this only when the physics is meant to
change.
"""

import argparse
import ctypes
import json
import os
import pathlib
import resource
import statistics
import sys
import time
import warnings

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the library under test is the checkout's own source tree, never an installed copy
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))


def import_library():
    import twoatom_cbs

    origin = pathlib.Path(twoatom_cbs.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"twoatom_cbs imported from {origin}, not from {SRC}")
    import twoatom_cbs.cli  # noqa: F401  (part of set-up: the CLI's imports)
    return twoatom_cbs


def blas_facts():
    """Version and effective thread count of every OpenBLAS loaded in this process."""
    facts = {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                entry["threads"] = threads()
            if config is not None:
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode()
        facts[pathlib.Path(path).name] = entry
    return facts


def setup():
    """Import, fill the lazy caches and warm up; returns set-up facts."""
    lib = import_library()
    from twoatom_cbs import basis, liouvillian, spectrum

    t0 = time.perf_counter()
    basis.single_atom_basis()
    basis.two_atom_basis_flat()
    cache_fill_s = time.perf_counter() - t0
    # untimed warm-up: one tiny spectrum touches every layer a pass uses
    gen = liouvillian.assemble(liouvillian.DriveConfig(rabi=1.0),
                               liouvillian.Geometry.backscattering(100.0))
    spectrum.compute_spectrum(gen, nu_grid=[-1.0, 0.5, 2.0])
    import numpy
    import scipy

    return {
        "cache_fill_s": cache_fill_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "twoatom_cbs": lib.__version__},
        "blas": blas_facts(),
    }


def run_pass(ops, tracer=None):
    """Run every operation back to back; returns (pass wall, [(latency, outcome)])."""
    from workloads import Outcome

    timed = []
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            first_warning = len(log)
            start = time.perf_counter()
            try:
                value, error = op.run(), ""
            except Exception as exc:  # a failing operation is counted, not fatal
                value, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            timed.append((latency, Outcome(value, error, log[first_warning:], op.output_path)))
        wall = time.perf_counter() - pass_start
    for _, outcome in timed:
        outcome.warnings = [str(w.message) for w in outcome.warnings]
    return wall, timed


def check_pass(ops, timed, reference):
    """Per-operation records with every problem found, outside the timed region."""
    from workloads import compare_fingerprint, interpolation_count

    records = []
    for op, (latency, outcome) in zip(ops, timed):
        problems, fingerprint = op.check(outcome)
        if reference is not None:
            problems += compare_fingerprint(fingerprint, reference.get(op.name))
        output_bytes = 0
        if op.output_path and os.path.exists(op.output_path):
            output_bytes = os.path.getsize(op.output_path)
            os.remove(op.output_path)
        records.append({
            "name": op.name,
            "configs": op.configs,
            "latency_s": latency,
            "freq_points": op.freq_points,
            "interpolated": interpolation_count(outcome.warnings),
            "output_bytes": output_bytes,
            "problems": problems,
            "fingerprint": fingerprint,
        })
    return records


def traced_pass(ops, reference):
    from tracer import FACTOR, Tracer, layer_totals

    tracer = Tracer()
    tracer.install()
    try:
        wall, timed = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    layers = layer_totals(tracer.spans)
    factor_flops = sum(8.0 * s[5] ** 3 / 3.0 for s in tracer.spans if s[0] == FACTOR)
    return {"wall_s": wall, "ops": check_pass(ops, timed, reference), "layers": layers,
            "factor_flops": factor_flops, "spans": tracer.spans}


def measure(args, reference):
    from workloads import make_ops

    ops = make_ops(args.workload, args.seed, args.tmp, tiny=args.tiny)
    result = {"configs": [dict(op.params, name=op.name) for op in ops], "passes": []}
    if args.mode in ("measure", "measure-traced"):
        start = time.perf_counter()
        walls = []
        while True:
            wall, timed = run_pass(ops)
            walls.append(wall)
            result["passes"].append({"wall_s": wall, "ops": check_pass(ops, timed, reference)})
            # start another pass only if it should end within the measuring time
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
    if args.mode in ("measure-traced", "traced"):
        result["traced"] = traced_pass(ops, reference)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def record_fingerprint(tmp):
    from workloads import FINGERPRINT_PATH, fingerprint_ops

    ops = fingerprint_ops(tmp)
    _, timed = run_pass(ops)
    records = check_pass(ops, timed, None)
    bad = {r["name"]: r["problems"] for r in records if r["problems"]}
    if bad:
        raise SystemExit(f"not recording a fingerprint of failing operations: {bad}")
    table = {r["name"]: r["fingerprint"] for r in records if r["fingerprint"]}
    FINGERPRINT_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} operations in {FINGERPRINT_PATH}")


def main(argv=None):
    from workloads import WORKLOADS, load_fingerprint

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure", "measure-traced", "traced"),
                    default="setup")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--record-fingerprint", action="store_true")
    args = ap.parse_args(argv)

    facts = setup()
    if args.record_fingerprint:
        record_fingerprint(args.tmp)
        return 0
    print(json.dumps({"ready": True, **facts}), flush=True)
    if args.mode == "setup":
        return 0
    if args.workload is None:
        ap.error("--workload is required to measure")
    print(json.dumps(measure(args, load_fingerprint())), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
