#!/usr/bin/env python3
"""Reproduce the three bifurcation diagrams (centre-of-mass norm vs kappa).

One CSV per diffusion regime, written next to this script:

  case_i.csv    d=2, m=0.50   uniform state + one supported branch
  case_ii.csv   d=3, m=0.25   supported branch hands off to an atom+density
                              state at kappa2
  case_iii.csv  d=5, m=0.30   a pair of atom+density states is born at the
                              fold kappa3 below the supported branch window

Each CSV has columns kappa,branch,alpha,eta,com_norm,energy and can be fed
straight into any plotting tool; plot com_norm against kappa per branch to
get the diagrams, and energy against kappa for the ground-state picture.
"""

import pathlib

from fastsphere import critical_set
from fastsphere.cli import main

HERE = pathlib.Path(__file__).parent

SWEEPS = {
    "case_i.csv": dict(d=2, m=0.5, lo=4.0, hi=16.0, steps=121),
    "case_ii.csv": dict(d=3, m=0.25, lo=8.0, hi=20.0, steps=121),
    "case_iii.csv": dict(d=5, m=0.3, lo=15.0, hi=22.0, steps=141),
}


def sweep_argv(spec: dict, out) -> list[str]:
    """fastsphere sweep arguments that write the demo sweep of spec to out."""
    return [
        "sweep",
        "--d", str(spec["d"]),
        "--m", str(spec["m"]),
        "--kappa-min", str(spec["lo"]),
        "--kappa-max", str(spec["hi"]),
        "--steps", str(spec["steps"]),
        "--out", str(out),
    ]


if __name__ == "__main__":
    for name, spec in SWEEPS.items():
        crit = critical_set(spec["d"], spec["m"])
        print(f"{name}: d={spec['d']}, m={spec['m']}")
        print(f"  kappa1 = {crit.kappa1:.6f}")
        if crit.kappa2 is not None:
            print(f"  kappa2 = {crit.kappa2:.6f}")
        if crit.kappa3 is not None:
            print(f"  kappa3 = {crit.kappa3:.6f}  (fold; alpha_bar = {crit.alpha_bar:.6f})")
        if crit.kappa_c is not None:
            print(f"  kappa_c = {crit.kappa_c:.6f}  (ground state switches here)")
        out = HERE / name
        main(sweep_argv(spec, out))
        print(f"  wrote {out}")
