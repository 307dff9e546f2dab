"""Workload generation, per-operation output checks and the physics fingerprint.

A workload is a list of operations built from a seed. Each operation is one
call into the program: a `cli.main` invocation or one library pipeline
(assemble -> compute_spectrum -> check_sum_rule). The program receives only
the generated inputs. Every operation is checked after its pass, outside the
timed region, and compared against the physics fingerprint recorded in
`fingerprint.json`; any mismatch makes the operation count as failed.

Drive inputs are drawn from fixed menus so that every operation a seed can
generate has a recorded fingerprint.
"""

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
FINGERPRINT_PATH = HERE / "fingerprint.json"

WORKLOADS = ("spectra-wide", "spectra-scan", "stationary-sweep")

K0_R12 = 100.0
#: tolerance of the library's own check_sum_rule
SUM_RULE_TOL = 1e-3
#: fingerprint tolerances: a refactor that only reorders floating-point work
#: moves these values by ~1e-12 relative; a physics change moves them by far more
FP_RTOL = 1e-8
FP_ATOL_SUM_RULE = 1e-8
#: compare-oracles errors must stay at round-off level
ORACLE_REL_ERR_MAX = 1e-9
#: the cone's Monte Carlo angular factor must lie this many standard errors from 2/15
MC_SIGMAS = 5.0

# spectra-wide: the four drive regimes of scripts/run_spectra.py, each on the
# default_nu_grid range (which covers all seven resonances). Points give a
# spacing of 0.25 on the narrow weak-drive lines and <=1.0 on the strong-drive
# lines (half widths >= 1), enough to close the sum rule well inside 1e-3.
WIDE_REGIMES = (
    # (rabi, detuning, points)
    (0.1, 0.0, 83),
    (0.1, 5.0, 181),
    (20.0, 20.0, 217),
    (100.0, 0.0, 521),
)

# spectra-scan: weak-to-moderate drives. 81 points over the default_nu_grid
# range keep the spacing <= 0.5 for hypot(rabi, detuning) <= 4.
SCAN_RABI = (0.3, 0.6, 1.0, 1.5, 2.0, 3.0)
SCAN_DETUNING = (-2.5, -1.0, 0.0, 1.0, 2.5)
SCAN_POINTS = 81
SCAN_PER_PASS = 3

# stationary-sweep: the Omega grid of scripts/run_detuned_sweep.py at a seeded
# detuning, then compare-oracles, then the cone of scripts/run_cone.py.
SWEEP_DETUNINGS = (0.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0, 80.0)
SWEEP_POINTS = 41
CONE_RABI = 0.5
CONE_K_ELL = 1000.0
CONE_MC_SAMPLES = 200_000
#: compare-oracles evaluates gen0 plus the three default saturation values
ORACLE_CONFIGS = 4


@dataclass
class Op:
    """One call into the program with its generated inputs."""

    name: str
    configs: int
    params: dict
    run: Callable[[], Any]
    check: Callable[["Outcome"], tuple]
    output_path: str = ""
    freq_points: int = 0


@dataclass
class Outcome:
    """What one timed call produced."""

    value: Any = None
    error: str = ""
    warnings: list = field(default_factory=list)
    output_path: str = ""


def _fmt(x):
    return repr(float(x))


def interpolation_count(messages):
    """Grid points the library interpolated, read from its warnings."""
    count = 0
    for msg in messages:
        if "ill-conditioned grid points" in msg:
            count += int(msg.split("skipped", 1)[1].split()[0])
    return count


def read_csv_output(path):
    """(header dict, column names, rows) of a CLI CSV output file."""
    header, columns, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, raw = line[1:].partition("=")
                header[key.strip()] = raw.strip()
            elif columns is None:
                columns = line.strip().split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return header, columns, np.array(rows, dtype=float)


def _common_problems(outcome):
    problems = []
    if outcome.error:
        problems.append(outcome.error)
    interpolated = interpolation_count(outcome.warnings)
    if interpolated:
        problems.append(f"{interpolated} grid points interpolated")
    return problems


def _cli_output(outcome, problems):
    """Parsed CLI output, or None after recording why it is unusable."""
    if outcome.error:
        return None
    if outcome.value != 0:
        problems.append(f"cli exit code {outcome.value}")
        return None
    header, columns, rows = read_csv_output(outcome.output_path)
    if rows.size == 0 or not np.isfinite(rows).all():
        problems.append("non-finite or empty output rows")
        return None
    return header, columns, rows


def check_spectrum_cli(outcome):
    """Checks of one normalized `spectrum` CLI run; returns (problems, fingerprint)."""
    problems = _common_problems(outcome)
    parsed = _cli_output(outcome, problems)
    if parsed is None:
        return problems, {}
    header = parsed[0]
    l_inel = float(header["L_inel"])
    c_inel = float(header["C_inel"])
    # normalized densities: the ladder integral is 1, the crossed one C_inel/L_inel
    ladder_err = abs(float(header["ladder_integral"]) - 1.0)
    crossed_err = abs(float(header["crossed_integral"]) - c_inel / l_inel)
    if not (ladder_err <= SUM_RULE_TOL and crossed_err <= SUM_RULE_TOL):
        problems.append(f"sum rule open: ladder {ladder_err:.2e}, crossed {crossed_err:.2e}")
    fingerprint = {
        "alpha": float(header["alpha"]),
        "elastic_weight": float(header["elastic_weight"]),
        "L_inel": l_inel,
        "C_inel": c_inel,
        "ladder_err": ladder_err,
        "crossed_err": crossed_err,
    }
    return problems, fingerprint


def check_spectrum_api(outcome):
    """Checks of one assemble -> compute_spectrum -> check_sum_rule pipeline."""
    problems = _common_problems(outcome)
    if outcome.error:
        return problems, {}
    spec, ib, report = outcome.value
    if not (np.isfinite(spec.ladder_density).all() and np.isfinite(spec.crossed_density).all()):
        problems.append("non-finite spectral density")
    if not report.ok:
        problems.append(f"sum rule open: {report.ladder_error:.2e}, {report.crossed_error:.2e}")
    fingerprint = {
        "alpha": ib.alpha,
        "elastic_weight": spec.elastic_weight,
        "L_inel": ib.L_inel,
        "C_inel": ib.C_inel,
        "ladder_err": report.ladder_error,
        "crossed_err": report.crossed_error,
    }
    return problems, fingerprint


def check_sweep(outcome, points):
    problems = _common_problems(outcome)
    parsed = _cli_output(outcome, problems)
    if parsed is None:
        return problems, {}
    _, columns, rows = parsed
    if rows.shape[0] != points:
        problems.append(f"{rows.shape[0]} sweep rows, expected {points}")
        return problems, {}
    fingerprint = {}
    for tag, row in (("first", rows[0]), ("last", rows[-1])):
        for col in ("rabi", "L_el", "C_el", "L_inel", "C_inel", "alpha"):
            fingerprint[f"{tag}.{col}"] = float(row[columns.index(col)])
    return problems, fingerprint


def check_oracles(outcome):
    problems = _common_problems(outcome)
    parsed = _cli_output(outcome, problems)
    if parsed is None:
        return problems, {}
    header = parsed[0]
    alpha_err = float(header["max_alpha_rel_err"])
    elastic_err = float(header["max_elastic_rel_err"])
    if not (alpha_err <= ORACLE_REL_ERR_MAX and elastic_err <= ORACLE_REL_ERR_MAX):
        problems.append(f"oracle errors above round-off: {alpha_err:.2e}, {elastic_err:.2e}")
    return problems, {}


def check_cone(outcome):
    from twoatom_cbs import oracles
    from twoatom_cbs.config_average import ANGULAR_FACTOR

    problems = _common_problems(outcome)
    parsed = _cli_output(outcome, problems)
    if parsed is None:
        return problems, {}
    header = parsed[0]
    contrast0 = float(header["contrast_at_zero"])
    alpha = oracles.alpha_closed_form(CONE_RABI ** 2 / 2.0)
    if not math.isclose(contrast0, alpha - 1.0, rel_tol=FP_RTOL):
        problems.append(f"contrast_at_zero {contrast0!r} != alpha - 1 = {alpha - 1.0!r}")
    mc = float(header["mc_angular_factor"])
    stderr = float(header["mc_angular_stderr"])
    if not abs(mc - ANGULAR_FACTOR) <= MC_SIGMAS * stderr:
        problems.append(f"MC angular factor {mc:.6f} +- {stderr:.1e} is not 2/15")
    return problems, {"contrast_at_zero": contrast0}


def _cli_op(name, configs, params, argv, tmpdir, check, freq_points=0):
    from twoatom_cbs import cli

    path = str(pathlib.Path(tmpdir) / (name.replace(" ", "_").replace("=", "") + ".csv"))

    def run():
        # cli.main is looked up at call time so that traced wrappers apply
        return cli.main(argv + ["--output", path])

    return Op(name=name, configs=configs, params=dict(params, argv=argv), run=run,
              check=check, output_path=path, freq_points=freq_points)


def _api_spectrum_op(rabi, detuning, points):
    from twoatom_cbs import liouvillian, spectrum

    def run():
        gen = liouvillian.assemble(
            liouvillian.DriveConfig(rabi=rabi, detuning=detuning),
            liouvillian.Geometry.backscattering(K0_R12),
        )
        nu_grid = spectrum.default_nu_grid(gen.cfg, points=points)
        spec, ib = spectrum.compute_spectrum(gen, nu_grid=nu_grid)
        return spec, ib, spectrum.check_sum_rule(spec, ib, tolerance=SUM_RULE_TOL)

    name = f"scan O={rabi:g} d={detuning:g} P={points}"
    params = {"rabi": rabi, "detuning": detuning, "points": points, "k0_r12": K0_R12}
    return Op(name=name, configs=1, params=params, run=run, check=check_spectrum_api,
              freq_points=points)


def _wide_op(rabi, detuning, points, tmpdir):
    from twoatom_cbs.liouvillian import DriveConfig
    from twoatom_cbs.spectrum import default_nu_grid

    grid = default_nu_grid(DriveConfig(rabi=rabi, detuning=detuning), points=points)
    argv = ["spectrum", "--rabi", _fmt(rabi), "--detuning", _fmt(detuning),
            "--k0-r12", _fmt(K0_R12), "--nu-min", _fmt(grid[0]), "--nu-max", _fmt(grid[-1]),
            "--points", str(points), "--normalize"]
    name = f"spectrum O={rabi:g} d={detuning:g} P={points}"
    params = {"rabi": rabi, "detuning": detuning, "points": points}
    return _cli_op(name, 1, params, argv, tmpdir, check_spectrum_cli, freq_points=points)


def _sweep_op(detuning, points, tmpdir):
    argv = ["intensity-sweep", "--detuning", _fmt(detuning), "--k0-r12", _fmt(K0_R12),
            "--sweep-min", "1", "--sweep-max", "100", "--sweep-points", str(points)]
    name = f"sweep d={detuning:g}"
    return _cli_op(name, points, {"detuning": detuning, "points": points}, argv, tmpdir,
                   lambda outcome: check_sweep(outcome, points))


def _oracles_op(tmpdir):
    argv = ["compare-oracles", "--k0-r12", _fmt(K0_R12)]
    return _cli_op("compare-oracles", ORACLE_CONFIGS, {}, argv, tmpdir, check_oracles)


def _cone_op(seed, tmpdir):
    from twoatom_cbs.config_average import cone_half_width

    theta_max = 1.4 * cone_half_width(CONE_K_ELL)
    argv = ["cone", "--rabi", _fmt(CONE_RABI), "--k-ell", _fmt(CONE_K_ELL),
            "--theta-max", f"{theta_max:.6g}", "--theta-points", "101",
            "--mc-samples", str(CONE_MC_SAMPLES), "--seed", str(seed)]
    return _cli_op("cone", 1, {"mc_seed": seed}, argv, tmpdir, check_cone)


def make_ops(workload, seed, tmpdir, tiny=False):
    """The operations of one pass, generated from `seed` alone.

    `tiny` keeps one cheap operation of each kind, for the benchmark's tests.
    """
    seed &= 0xFFFFFFFF
    rng = np.random.default_rng(seed)
    if workload == "spectra-wide":
        regimes = [WIDE_REGIMES[i] for i in rng.permutation(len(WIDE_REGIMES))]
        if tiny:
            regimes = [WIDE_REGIMES[0]]
        return [_wide_op(r, d, p, tmpdir) for r, d, p in regimes]
    if workload == "spectra-scan":
        menu = [(r, d) for r in SCAN_RABI for d in SCAN_DETUNING]
        picks = rng.choice(len(menu), size=1 if tiny else SCAN_PER_PASS, replace=False)
        return [_api_spectrum_op(*menu[i], SCAN_POINTS) for i in picks]
    if workload == "stationary-sweep":
        detuning = SWEEP_DETUNINGS[rng.integers(len(SWEEP_DETUNINGS))]
        points = 3 if tiny else SWEEP_POINTS
        # the cone runs first: its Monte Carlo chunks free multi-megabyte arrays,
        # which raises the allocator's trim threshold and speeds up the
        # sweep's assembly, so every pass, the first included, sees that state
        return [_cone_op(seed, tmpdir), _sweep_op(detuning, points, tmpdir), _oracles_op(tmpdir)]
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint_ops(tmpdir):
    """Every operation the menus can generate, for recording the fingerprint."""
    ops = [_wide_op(r, d, p, tmpdir) for r, d, p in WIDE_REGIMES]
    ops += [_api_spectrum_op(r, d, SCAN_POINTS) for r in SCAN_RABI for d in SCAN_DETUNING]
    ops += [_sweep_op(d, SWEEP_POINTS, tmpdir) for d in SWEEP_DETUNINGS]
    ops.append(_cone_op(0, tmpdir))
    return ops


def load_fingerprint():
    with open(FINGERPRINT_PATH) as fh:
        return json.load(fh)


def compare_fingerprint(measured, reference):
    """Problems for each recorded fingerprint value that moved beyond round-off."""
    if reference is None:
        return ["no recorded fingerprint"] if measured else []
    problems = []
    for key, ref in reference.items():
        got = measured.get(key)
        if got is None:
            problems.append(f"fingerprint value {key} missing")
            continue
        prefix, _, quantity = key.rpartition(".")
        if quantity.endswith("_err"):
            tol = FP_ATOL_SUM_RULE
        elif quantity in ("L_el", "C_el", "L_inel", "C_inel"):
            # crossed terms pass through zero: compare on the ladder scale of the same row
            ladder = sum(abs(reference.get(f"{prefix}.{q}" if prefix else q, 0.0))
                         for q in ("L_el", "L_inel"))
            tol = FP_RTOL * max(abs(ref), ladder)
        else:
            tol = FP_RTOL * abs(ref)
        if not abs(got - ref) <= tol:
            problems.append(f"fingerprint {key}: {got!r} vs recorded {ref!r}")
    return problems
