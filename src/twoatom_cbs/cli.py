"""Command-line front end: sweeps, spectra, oracle comparisons, cone profiles.

Configuration comes from an optional flat key=value file plus flag
overrides; unknown keys are rejected so typos in physics parameters
cannot pass silently.  Output is CSV (with a '#'-prefixed re-parseable
metadata header) or JSON, deterministic byte for byte under a fixed
configuration and seed.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure,
141 (128 + SIGPIPE, as a shell reports a writer killed by a closed pipe)
when the reader of standard output goes away first, e.g. `| head -1`.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .config_average import DisorderModel, cbs_cone, monte_carlo_average
from .liouvillian import ConfigurationError, DriveConfig, Geometry, assemble
from .oracles import alpha_closed_form
from .spectrum import compute_spectrum, normalized_spectra
from .steady_state import ResolventError, intensities, perturbative_steady_state

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_BROKEN_PIPE = 141

#: accepted config keys per mode (beyond the common set)
_COMMON_KEYS = {"rabi", "detuning", "k0_r12", "seed", "format", "output"}
_MODE_KEYS = {
    "spectrum": {"nu_min", "nu_max", "points", "normalize"},
    "intensity-sweep": {"sweep_min", "sweep_max", "sweep_points", "sweep_scale"},
    "compare-oracles": {"s_values"},
    "cone": {"theta_max", "theta_points", "k_ell", "mc_samples"},
}

_DEFAULTS = {
    "rabi": 0.1,
    "detuning": 0.0,
    "k0_r12": 100.0,
    "seed": 0,
    "format": "csv",
    "output": "",
    "nu_min": -10.0,
    "nu_max": 10.0,
    "points": 801,
    "normalize": False,
    "sweep_min": 1.0,
    "sweep_max": 100.0,
    "sweep_points": 25,
    "sweep_scale": "log",
    "s_values": "0.1,1,10",
    "theta_max": 0.05,
    "theta_points": 51,
    "k_ell": 100.0,
    "mc_samples": 0,
}


def _parse_value(raw):
    raw = raw.strip()
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
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


#: metadata keys the tool itself writes into output headers; ignored on
#: input so a run can be reproduced directly from its own header
_OUTPUT_KEYS = {
    "mode", "version", "elastic_weight", "L_inel", "C_inel", "alpha",
    "ladder_integral", "crossed_integral", "max_alpha_rel_err",
    "max_elastic_rel_err", "contrast_at_zero", "mc_angular_factor",
    "mc_angular_stderr",
}


def build_config(mode, file_values, overrides):
    """Merge defaults, config file, and flag overrides with strict keys."""
    allowed = _COMMON_KEYS | _MODE_KEYS[mode]
    if file_values.get("mode", mode) != mode:
        raise ConfigurationError(
            f"config file is for mode {file_values['mode']!r}, not {mode!r}"
        )
    file_values = {k: v for k, v in file_values.items() if k not in _OUTPUT_KEYS}
    unknown = set(file_values) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown configuration keys for mode {mode}: {sorted(unknown)}"
        )
    cfg = {k: _DEFAULTS[k] for k in allowed}
    cfg.update(file_values)
    cfg.update({k: v for k, v in overrides.items() if v is not None and k in allowed})
    if cfg["format"] not in ("csv", "json"):
        raise ConfigurationError(f"unsupported format {cfg['format']!r}")
    return cfg


def _fmt(x):
    return f"{x:.15g}"


def _emit(cfg, metadata, columns, rows, stream):
    meta = dict(metadata)
    meta["version"] = __version__
    if cfg["format"] == "csv":
        for key, value in meta.items():
            stream.write(f"# {key} = {value}\n")
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(x) for x in row) + "\n")
    else:
        doc = {
            "metadata": meta,
            "columns": list(columns),
            "rows": [[float(x) for x in row] for row in rows],
        }
        json.dump(doc, stream, indent=2)
        stream.write("\n")


def _pipeline(cfg):
    drive = DriveConfig(rabi=float(cfg["rabi"]), detuning=float(cfg["detuning"]))
    geometry = Geometry.backscattering(float(cfg["k0_r12"]))
    return drive, geometry


def run_spectrum(cfg):
    drive, geometry = _pipeline(cfg)
    gen = assemble(drive, geometry)
    if int(cfg["points"]) < 2 or cfg["nu_min"] >= cfg["nu_max"]:
        raise ConfigurationError("need nu_min < nu_max and points >= 2")
    nu_grid = np.linspace(float(cfg["nu_min"]), float(cfg["nu_max"]), int(cfg["points"]))
    spec, ib = compute_spectrum(gen, nu_grid=nu_grid)
    if cfg["normalize"]:
        spec = normalized_spectra(spec, ib)
    lad_int, cro_int = spec.integrals()
    metadata = {
        "mode": "spectrum",
        "rabi": _fmt(cfg["rabi"]),
        "detuning": _fmt(cfg["detuning"]),
        "k0_r12": _fmt(cfg["k0_r12"]),
        "nu_min": _fmt(cfg["nu_min"]),
        "nu_max": _fmt(cfg["nu_max"]),
        "points": int(cfg["points"]),
        "normalize": cfg["normalize"],
        "seed": int(cfg["seed"]),
        "elastic_weight": _fmt(spec.elastic_weight),
        "L_inel": _fmt(ib.L_inel),
        "C_inel": _fmt(ib.C_inel),
        "alpha": _fmt(ib.alpha),
        "ladder_integral": _fmt(lad_int),
        "crossed_integral": _fmt(cro_int),
    }
    rows = np.column_stack([spec.nu_grid, spec.ladder_density, spec.crossed_density])
    return metadata, ("nu", "ladder", "crossed"), rows


def run_intensity_sweep(cfg):
    drive, geometry = _pipeline(cfg)
    lo, hi, n = float(cfg["sweep_min"]), float(cfg["sweep_max"]), int(cfg["sweep_points"])
    if not (0 < lo < hi) or n < 2:
        raise ConfigurationError("need 0 < sweep_min < sweep_max and sweep_points >= 2")
    if cfg["sweep_scale"] == "log":
        rabis = np.geomspace(lo, hi, n)
    elif cfg["sweep_scale"] == "linear":
        rabis = np.linspace(lo, hi, n)
    else:
        raise ConfigurationError(f"unknown sweep_scale {cfg['sweep_scale']!r}")
    rows = []
    for rabi in rabis:
        gen = assemble(DriveConfig(rabi=rabi, detuning=drive.detuning), geometry)
        ib = intensities(perturbative_steady_state(gen), gen)
        rows.append([rabi, drive.detuning, ib.L_el, ib.C_el,
                     ib.L_inel, ib.C_inel, ib.alpha])
    metadata = {
        "mode": "intensity-sweep",
        "detuning": _fmt(cfg["detuning"]),
        "k0_r12": _fmt(cfg["k0_r12"]),
        "sweep_min": _fmt(lo),
        "sweep_max": _fmt(hi),
        "sweep_points": n,
        "sweep_scale": cfg["sweep_scale"],
        "seed": int(cfg["seed"]),
    }
    columns = ("rabi", "detuning", "L_el", "C_el", "L_inel", "C_inel", "alpha")
    return metadata, columns, np.array(rows)


def run_compare_oracles(cfg):
    _, geometry = _pipeline(cfg)
    try:
        s_values = [float(tok) for tok in str(cfg["s_values"]).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad s_values list: {cfg['s_values']!r}") from exc
    if not s_values or any(s <= 0 for s in s_values):
        raise ConfigurationError("s_values must be positive saturation parameters")
    gen0 = assemble(DriveConfig(rabi=1.0), geometry)
    weight = gen0.angular_weight
    rows = []
    for s in s_values:
        rabi = np.sqrt(2.0 * s)
        gen = assemble(DriveConfig(rabi=rabi), geometry)
        ib = intensities(perturbative_steady_state(gen), gen)
        alpha_ref = alpha_closed_form(s)
        # reduced elastic oracle s/(1+s)^4 rescaled by the geometric weight
        el_ref = s / (1.0 + s) ** 4 * weight
        rows.append([
            s, ib.alpha, alpha_ref, abs(ib.alpha - alpha_ref) / alpha_ref,
            ib.L_el, el_ref, abs(ib.L_el - el_ref) / el_ref,
        ])
    rows = np.array(rows)
    metadata = {
        "mode": "compare-oracles",
        "k0_r12": _fmt(cfg["k0_r12"]),
        "s_values": ",".join(_fmt(s) for s in s_values),
        "seed": int(cfg["seed"]),
        "max_alpha_rel_err": _fmt(rows[:, 3].max()),
        "max_elastic_rel_err": _fmt(rows[:, 6].max()),
    }
    columns = ("s", "alpha_numeric", "alpha_oracle", "alpha_rel_err",
               "L_el_numeric", "L_el_oracle", "L_el_rel_err")
    return metadata, columns, rows


def run_cone(cfg):
    drive, geometry = _pipeline(cfg)
    theta_max, n = float(cfg["theta_max"]), int(cfg["theta_points"])
    if not (0 < theta_max < 1) or n < 2:
        raise ConfigurationError("need 0 < theta_max < 1 and theta_points >= 2")
    gen = assemble(drive, geometry)
    ib = intensities(perturbative_steady_state(gen), gen)
    contrast0 = ib.C_tot / ib.L_tot
    thetas = np.linspace(0.0, theta_max, n)
    profile = cbs_cone(thetas, contrast0, float(cfg["k_ell"]))
    mc_samples = int(cfg["mc_samples"])
    metadata = {
        "mode": "cone",
        "rabi": _fmt(cfg["rabi"]),
        "detuning": _fmt(cfg["detuning"]),
        "k0_r12": _fmt(cfg["k0_r12"]),
        "k_ell": _fmt(cfg["k_ell"]),
        "theta_max": _fmt(theta_max),
        "theta_points": n,
        "mc_samples": mc_samples,
        "seed": int(cfg["seed"]),
        "contrast_at_zero": _fmt(contrast0),
    }
    if mc_samples > 0:
        model = DisorderModel(mean_separation=float(cfg["k_ell"]),
                              samples=mc_samples, seed=int(cfg["seed"]))
        from .config_average import angular_weight_evaluator

        mc = monte_carlo_average(model, angular_weight_evaluator)
        metadata["mc_angular_factor"] = _fmt(mc.mean)
        metadata["mc_angular_stderr"] = _fmt(mc.standard_error)
    rows = np.column_stack([thetas, profile])
    return metadata, ("theta", "contrast"), rows


_RUNNERS = {
    "spectrum": run_spectrum,
    "intensity-sweep": run_intensity_sweep,
    "compare-oracles": run_compare_oracles,
    "cone": run_cone,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twoatom-cbs",
        description="Double-scattering CBS intensities and spectra for two driven atoms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _RUNNERS:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--seed", type=int)
        p.add_argument("--rabi", type=float)
        p.add_argument("--detuning", type=float)
        p.add_argument("--k0-r12", dest="k0_r12", type=float)
        if mode == "spectrum":
            p.add_argument("--nu-min", dest="nu_min", type=float)
            p.add_argument("--nu-max", dest="nu_max", type=float)
            p.add_argument("--points", type=int)
            p.add_argument("--normalize", action="store_const", const=True)
        elif mode == "intensity-sweep":
            p.add_argument("--sweep-min", dest="sweep_min", type=float)
            p.add_argument("--sweep-max", dest="sweep_max", type=float)
            p.add_argument("--sweep-points", dest="sweep_points", type=int)
            p.add_argument("--sweep-scale", dest="sweep_scale",
                           choices=("log", "linear"))
        elif mode == "compare-oracles":
            p.add_argument("--s-values", dest="s_values")
        elif mode == "cone":
            p.add_argument("--theta-max", dest="theta_max", type=float)
            p.add_argument("--theta-points", dest="theta_points", type=int)
            p.add_argument("--k-ell", dest="k_ell", type=float)
            p.add_argument("--mc-samples", dest="mc_samples", type=int)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("mode", "config")}
    try:
        file_values = read_config_file(args.config) if args.config else {}
        cfg = build_config(args.mode, file_values, overrides)
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        metadata, columns, rows = _RUNNERS[args.mode](cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResolventError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if cfg["output"]:
        with open(cfg["output"], "w") as fh:
            _emit(cfg, metadata, columns, rows, fh)
    else:
        try:
            _emit(cfg, metadata, columns, rows, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # point stdout at devnull so the interpreter's final flush is quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_BROKEN_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
