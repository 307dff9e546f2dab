#!/usr/bin/env python3
"""Compute inelastic CBS spectra over the main drive regimes.

Writes one CSV per parameter point: the weak-drive single line, the
detuned dispersive case, and the strong-drive seven-line spectrum, each
normalized by the inelastic ladder intensity.
"""

import pathlib
import sys

from twoatom_cbs.cli import main as cli_main

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"

POINTS = [
    # (rabi, detuning, nu_max, grid points)
    (0.1, 0.0, 10.0, 801),
    (0.1, 5.0, 25.0, 1001),
    (20.0, 20.0, 85.0, 1601),
    (100.0, 0.0, 510.0, 4001),
]


def main():
    OUT.mkdir(exist_ok=True)
    for rabi, detuning, nu_max, points in POINTS:
        out = OUT / f"spectrum_O{rabi:g}_d{detuning:g}.csv"
        code = cli_main([
            "spectrum",
            "--rabi", str(rabi), "--detuning", str(detuning),
            "--nu-min", str(-nu_max), "--nu-max", str(nu_max),
            "--points", str(points), "--normalize",
            "--output", str(out),
        ])
        if code != 0:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
