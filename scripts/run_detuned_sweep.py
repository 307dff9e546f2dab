#!/usr/bin/env python3
"""Sweep the drive strength at fixed detuning and tabulate all intensities.

Reproduces the crossing structure of the elastic/inelastic ladder and
crossed components: the inelastic crossed term turns negative over a
window of Rabi frequencies with its minimum near Omega = delta.
"""

import pathlib
import sys

from twoatom_cbs.cli import main as cli_main

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"

DETUNING = 20.0
POINTS = 41


def main():
    OUT.mkdir(exist_ok=True)
    out = OUT / f"sweep_delta{DETUNING:g}.csv"
    code = cli_main([
        "intensity-sweep",
        "--detuning", str(DETUNING),
        "--sweep-min", "1", "--sweep-max", "100",
        "--sweep-points", str(POINTS),
        "--output", str(out),
    ])
    if code == 0:
        print(f"wrote {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
