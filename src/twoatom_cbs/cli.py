"""Command-line front end: sweeps, spectra, oracle comparisons, cone profiles.

Each parameter is declared once in `_PARAMS` (type, default, choices) and
each mode once in `_MODES` (its parameters in header order, its result
keys, its runner); flags, config-file checks and output headers derive
from them. A mode accepts exactly the parameters its header echoes, plus
`format` and `output`: `intensity-sweep` takes no `--rabi` and
`compare-oracles` neither `--rabi` nor `--detuning`. Configuration comes
from an optional flat key=value file plus flag overrides; unknown keys and
mistyped values are rejected. Output is CSV (with a '#'-prefixed header
that is a valid config file, its floats written exactly so that a replay
reads the same values) or JSON, deterministic byte for byte under a fixed
configuration and seed.

Exit codes: 0 success, 1 invalid configuration (including usage errors and
an unwritable output path), 2 numerical failure (including a spectrum
whose sum rule misses by more than 1e-3; both errors are in its header as
`ladder_sum_rule_error` and `crossed_sum_rule_error`), 141 (128 + SIGPIPE,
as a shell reports a writer killed by a closed pipe) when the reader of
standard output goes away first, e.g. `| head -1`.
"""

import argparse
import contextlib
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config_average import (DisorderModel, angular_weight_evaluator, cbs_cone,
                             monte_carlo_average)
from .liouvillian import (ConfigurationError, DriveConfig, Geometry, angular_weight,
                          assemble, coupling_constant)
from .oracles import alpha_closed_form
from .spectrum import check_sum_rule, compute_spectrum, normalized_spectra
from .steady_state import ResolventError, intensities, perturbative_steady_state

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_BROKEN_PIPE = 141


def _fmt(x):
    return f"{x:.15g}"


class FloatList(tuple):
    """Comma-separated numbers such as `0.1,1,10`; prints back the same way."""

    def __new__(cls, raw):
        return super().__new__(cls, (float(tok) for tok in str(raw).split(",") if tok.strip()))

    def __str__(self):
        return ",".join(repr(x) for x in self)


class _Param(NamedTuple):
    type: type
    default: object
    choices: tuple = ()
    help: str = None


#: every configuration key
_PARAMS = {
    "rabi": _Param(float, 0.1),
    "detuning": _Param(float, 0.0),
    "k0_r12": _Param(float, 100.0),
    "nu_min": _Param(float, -10.0),
    "nu_max": _Param(float, 10.0),
    "points": _Param(int, 801),
    "normalize": _Param(bool, False),
    "sweep_min": _Param(float, 1.0),
    "sweep_max": _Param(float, 100.0),
    "sweep_points": _Param(int, 25),
    "sweep_scale": _Param(str, "log", ("log", "linear")),
    "s_values": _Param(FloatList, FloatList("0.1,1,10")),
    "k_ell": _Param(float, 100.0),
    # k l theta = 2 stays inside the quadratic profile's validity range
    "theta_max": _Param(float, 0.02),
    "theta_points": _Param(int, 51),
    "mc_samples": _Param(int, 0),
    "seed": _Param(int, 0),
    "format": _Param(str, "csv", ("csv", "json")),
    "output": _Param(str, "", help="output path (default: stdout)"),
}

#: keys every mode accepts and none echoes
_IO_KEYS = ("format", "output")


def _coerce(key, value):
    """`value` as the type of parameter `key`, or ConfigurationError."""
    param = _PARAMS[key]
    try:
        # booleans are not numbers here, and 2.5 is not an int
        if isinstance(value, bool) != (param.type is bool):
            raise ValueError
        if param.type is int and float(value) != int(value):
            raise ValueError
        value = param.type(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"{key} = {value!r} is not a valid {param.type.__name__}"
        ) from None
    if param.choices and value not in param.choices:
        raise ConfigurationError(f"{key} = {value!r} is not one of {param.choices}")
    return value


def _echo(value):
    """A configuration value or result as written to the output header.

    Floats keep every digit they need to replay exactly (rows keep `_fmt`);
    float() first, as numpy 2 writes repr(np.float64) as `np.float64(...)`.
    """
    if isinstance(value, float):
        return repr(float(value))
    return str(value) if isinstance(value, FloatList) else value


def _parse_value(raw):
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for number in (int, float):
        try:
            return number(raw)
        except ValueError:
            pass
    return raw


def read_config_file(path):
    """Parse a flat key = value file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key = value")
            key, raw = line.split("=", 1)
            values[key.strip()] = _parse_value(raw)
    return values


def read_output_header(path):
    """Recover the configuration dict from a CSV output's '#' header."""
    values = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line.lstrip("#").strip()
            if "=" in body:
                key, raw = body.split("=", 1)
                values[key.strip()] = _parse_value(raw)
    return values


def build_config(mode, file_values, overrides):
    """Merge defaults, config file, and flag overrides with strict keys and types.

    The keys a run writes into its own header (mode, version, results) are
    ignored, so a run can be reproduced directly from that header.
    """
    spec = _MODES[mode]
    if file_values.get("mode", mode) != mode:
        raise ConfigurationError(
            f"config file is for mode {file_values['mode']!r}, not {mode!r}"
        )
    written = {"mode", "version", *spec.results}
    given = {k: v for k, v in file_values.items() if k not in written}
    given.update((k, v) for k, v in overrides.items() if v is not None)
    allowed = spec.params + _IO_KEYS
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown configuration keys for mode {mode}: {sorted(unknown)}"
        )
    cfg = {k: _PARAMS[k].default for k in allowed}
    cfg.update((k, _coerce(k, v)) for k, v in given.items())
    return cfg


def _emit(fmt, header, columns, rows, stream):
    if fmt == "csv":
        for key, value in header.items():
            stream.write(f"# {key} = {value}\n")
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(x) for x in row) + "\n")
    else:
        doc = {"metadata": header, "columns": list(columns),
               "rows": [[float(x) for x in row] for row in rows]}
        json.dump(doc, stream, indent=2)
        stream.write("\n")


def run_spectrum(cfg):
    if cfg["points"] < 2 or cfg["nu_min"] >= cfg["nu_max"]:
        raise ConfigurationError("need nu_min < nu_max and points >= 2")
    gen = assemble(DriveConfig(rabi=cfg["rabi"], detuning=cfg["detuning"]),
                   Geometry.backscattering(cfg["k0_r12"]))
    nu_grid = np.linspace(cfg["nu_min"], cfg["nu_max"], cfg["points"])
    spec, ib = compute_spectrum(gen, nu_grid=nu_grid)
    sum_rule = check_sum_rule(spec, ib)
    if cfg["normalize"]:
        spec = normalized_spectra(spec, ib)
    lad_int, cro_int = spec.integrals()
    results = {
        "elastic_weight": spec.elastic_weight,
        "L_inel": ib.L_inel,
        "C_inel": ib.C_inel,
        "alpha": ib.alpha,
        "ladder_integral": lad_int,
        "crossed_integral": cro_int,
        "ladder_sum_rule_error": sum_rule.ladder_error,
        "crossed_sum_rule_error": sum_rule.crossed_error,
    }
    rows = np.column_stack([spec.nu_grid, spec.ladder_density, spec.crossed_density])
    return results, ("nu", "ladder", "crossed"), rows


def run_intensity_sweep(cfg):
    geometry = Geometry.backscattering(cfg["k0_r12"])
    lo, hi, n = cfg["sweep_min"], cfg["sweep_max"], cfg["sweep_points"]
    if not (0 < lo < hi) or n < 2:
        raise ConfigurationError("need 0 < sweep_min < sweep_max and sweep_points >= 2")
    spacing = np.geomspace if cfg["sweep_scale"] == "log" else np.linspace
    rabi = spacing(lo, hi, n)
    gen = assemble(DriveConfig(rabi=rabi, detuning=cfg["detuning"]), geometry)
    ib = intensities(perturbative_steady_state(gen), gen)
    rows = np.column_stack([rabi, np.full(n, cfg["detuning"]), ib.L_el, ib.C_el,
                            ib.L_inel, ib.C_inel, ib.alpha])
    columns = ("rabi", "detuning", "L_el", "C_el", "L_inel", "C_inel", "alpha")
    return {}, columns, rows


def run_compare_oracles(cfg):
    geometry = Geometry.backscattering(cfg["k0_r12"])
    s = np.array(cfg["s_values"])
    if not s.size or np.any(s <= 0):
        raise ConfigurationError("s_values must be positive saturation parameters")
    weight = angular_weight(geometry.n_hat, coupling_constant(cfg["k0_r12"]))
    gen = assemble(DriveConfig(rabi=np.sqrt(2.0 * s)), geometry)
    ib = intensities(perturbative_steady_state(gen), gen)
    alpha_ref = alpha_closed_form(s)
    # reduced elastic oracle s/(1+s)^4 rescaled by the geometric weight
    el_ref = s / (1.0 + s) ** 4 * weight
    rows = np.column_stack([
        s, ib.alpha, alpha_ref, np.abs(ib.alpha - alpha_ref) / alpha_ref,
        ib.L_el, el_ref, np.abs(ib.L_el - el_ref) / el_ref,
    ])
    results = {
        "max_alpha_rel_err": rows[:, 3].max(),
        "max_elastic_rel_err": rows[:, 6].max(),
    }
    columns = ("s", "alpha_numeric", "alpha_oracle", "alpha_rel_err",
               "L_el_numeric", "L_el_oracle", "L_el_rel_err")
    return results, columns, rows


def run_cone(cfg):
    theta_max, n, mc_samples = cfg["theta_max"], cfg["theta_points"], cfg["mc_samples"]
    if not (0 < theta_max < 1) or n < 2:
        raise ConfigurationError("need 0 < theta_max < 1 and theta_points >= 2")
    if mc_samples < 0:
        raise ConfigurationError("need mc_samples >= 0")
    gen = assemble(DriveConfig(rabi=cfg["rabi"], detuning=cfg["detuning"]),
                   Geometry.backscattering(cfg["k0_r12"]))
    ib = intensities(perturbative_steady_state(gen), gen)
    contrast0 = ib.C_tot / ib.L_tot
    thetas = np.linspace(0.0, theta_max, n)
    profile = cbs_cone(thetas, contrast0, cfg["k_ell"])
    results = {"contrast_at_zero": contrast0}
    if mc_samples > 0:
        model = DisorderModel(mean_separation=cfg["k_ell"], samples=mc_samples,
                              seed=cfg["seed"])
        mc = monte_carlo_average(model, angular_weight_evaluator)
        results["mc_angular_factor"] = mc.mean
        results["mc_angular_stderr"] = mc.standard_error
    rows = np.column_stack([thetas, profile])
    return results, ("theta", "contrast"), rows


class _Mode(NamedTuple):
    params: tuple  # accepted besides format and output, in header order
    results: tuple  # header keys the runner writes after them
    run: Callable  # cfg from build_config -> (results dict, columns, rows)


_MODES = {
    "spectrum": _Mode(
        ("rabi", "detuning", "k0_r12", "nu_min", "nu_max", "points", "normalize", "seed"),
        ("elastic_weight", "L_inel", "C_inel", "alpha", "ladder_integral",
         "crossed_integral", "ladder_sum_rule_error", "crossed_sum_rule_error"),
        run_spectrum),
    "intensity-sweep": _Mode(
        ("detuning", "k0_r12", "sweep_min", "sweep_max", "sweep_points", "sweep_scale",
         "seed"), (), run_intensity_sweep),
    "compare-oracles": _Mode(
        ("k0_r12", "s_values", "seed"), ("max_alpha_rel_err", "max_elastic_rel_err"),
        run_compare_oracles),
    "cone": _Mode(
        ("rabi", "detuning", "k0_r12", "k_ell", "theta_max", "theta_points", "mc_samples",
         "seed"), ("contrast_at_zero", "mc_angular_factor", "mc_angular_stderr"), run_cone),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twoatom-cbs",
        description="Double-scattering CBS intensities and spectra for two driven atoms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, spec in _MODES.items():
        p = sub.add_parser(mode)
        p.add_argument("--config", help="flat key = value configuration file")
        for key in spec.params + _IO_KEYS:
            param = _PARAMS[key]
            flag = "--" + key.replace("_", "-")
            if param.type is bool:
                p.add_argument(flag, action="store_const", const=True, help=param.help)
            else:
                p.add_argument(flag, type=param.type, choices=param.choices or None,
                               help=param.help)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help, the version or the usage error
        return EXIT_CONFIG if exc.code else EXIT_OK
    overrides = {k: v for k, v in vars(args).items() if k not in ("mode", "config")}
    mode = _MODES[args.mode]
    try:
        file_values = read_config_file(args.config) if args.config else {}
        cfg = build_config(args.mode, file_values, overrides)
        results, columns, rows = mode.run(cfg)
    except (ConfigurationError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResolventError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    header = {"mode": args.mode}
    header.update((k, _echo(cfg[k])) for k in mode.params)
    header.update((k, _echo(v)) for k, v in results.items())
    header["version"] = __version__
    try:
        with (open(cfg["output"], "w") if cfg["output"]
              else contextlib.nullcontext(sys.stdout)) as stream:
            _emit(cfg["format"], header, columns, rows, stream)
            stream.flush()
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
