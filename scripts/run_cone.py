#!/usr/bin/env python3
"""Angular profile of the interference contrast around exact backscattering.

The cone narrows as 1/(k l); the Monte Carlo angular factor printed in
the header, a mean of sin^4(theta)/4 over 200 000 random orientations,
cross-checks the analytic 2/15.
"""

import pathlib
import sys

from twoatom_cbs.cli import main as cli_main
from twoatom_cbs.config_average import cone_half_width

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"

RABI = 0.5
K_ELL = 1000.0


def main():
    OUT.mkdir(exist_ok=True)
    # stay inside the quadratic profile's validity (it crosses zero near
    # 1.4 half widths)
    theta_max = 1.4 * cone_half_width(K_ELL)
    out = OUT / f"cone_kl{K_ELL:g}.csv"
    code = cli_main([
        "cone",
        "--rabi", str(RABI),
        "--k-ell", str(K_ELL),
        "--theta-max", f"{theta_max:.6g}",
        "--theta-points", "101",
        "--mc-samples", "200000",
        "--output", str(out),
    ])
    if code == 0:
        print(f"wrote {out} (half width {cone_half_width(K_ELL):.3e} rad)")
    return code


if __name__ == "__main__":
    sys.exit(main())
