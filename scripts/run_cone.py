#!/usr/bin/env python3
"""Angular profile of the interference contrast around exact backscattering.

The cone narrows as 1/(k l); the Monte Carlo angular factor printed in
the header, a mean of sin^4(theta)/4 over 200 000 random orientations,
cross-checks the analytic 2/15.
"""

import argparse
import pathlib
import sys

from twoatom_cbs.cli import main as cli_main
from twoatom_cbs.config_average import cone_half_width

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rabi", type=float, default=0.5)
    ap.add_argument("--k-ell", type=float, default=1000.0)
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    # stay inside the quadratic profile's validity (it crosses zero near
    # 1.4 half widths)
    theta_max = 1.4 * cone_half_width(args.k_ell)
    out = OUT / f"cone_kl{args.k_ell:g}.csv"
    code = cli_main([
        "cone",
        "--rabi", str(args.rabi),
        "--k-ell", str(args.k_ell),
        "--theta-max", f"{theta_max:.6g}",
        "--theta-points", "101",
        "--mc-samples", "200000",
        "--output", str(out),
    ])
    if code == 0:
        print(f"wrote {out} (half width {cone_half_width(args.k_ell):.3e} rad)")
    return code


if __name__ == "__main__":
    sys.exit(main())
