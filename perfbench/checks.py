"""Output checks for the benchmark workloads.

The ``critical`` reference is computed here from closed forms, without
calling the package: kappa1 and kappa2 from Gamma functions, kappa3 and
alpha_bar from the tangency system, and kappa_c by bisection along the
upper measure-valued branch parametrized by its atom fraction alpha, where
kappa(alpha) is explicit and every integral sits at eta = 1 and has an
exact Beta-function value.

The ``sweep`` reference is a golden table (``ref/sweep.csv``) written by
``make_refs.py`` from a trusted commit; see that script.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"
SWEEP_REF = REF_DIR / "sweep.csv"

# relative tolerance on the sweep values; eta is never compared because the
# branch is so flat near kappa2 that valid solves differ in eta at 1e-4
SWEEP_REL_TOL = 1e-10
# closed forms are compared to rounding; kappa_c is bisected by the package
# to 1e-10 absolute in kappa, on energies carried at 1e-10 relative
CLOSED_FORM_REL_TOL = 1e-12
KAPPA_C_REL_TOL = 1e-8
KAPPA_C_ABS_TOL = 1e-10


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _areas(d: int) -> tuple[float, float]:
    """|S^d| and |S^(d-1)|."""
    area_sd = 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    area_sdm1 = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return area_sd, area_sdm1


def _eta1_mass(q: float, d: int) -> float:
    """int_0^pi (1 - cos t)^q sin^(d-1) t dt as a Beta function."""
    return math.exp(
        (q + d - 1.0) * math.log(2.0)
        + math.lgamma(q + 0.5 * d)
        + math.lgamma(0.5 * d)
        - math.lgamma(q + d)
    )


def critical_reference(d: int, m: float) -> dict:
    """Regime, kappa1..kappa3, alpha_bar and kappa_c for d >= 2, m < 1 - 2/d."""
    area_sd, area_sdm1 = _areas(d)
    q = 1.0 / (m - 1.0)
    i0 = _eta1_mass(q, d)
    k1 = m * (d + 1) * area_sd ** (1.0 - m)
    # 1/kappa2 = inverse_kappa(eta = 1), with i1 = i0 (-q) / (q + d)
    k2 = m / (1.0 - m) * (area_sdm1 * i0) ** (1.0 - m) * (q + d) / -q
    out = {
        "regime": "case_ii",
        "kappa1": k1,
        "kappa2": k2,
        "kappa3": None,
        "alpha_bar": None,
        "kappa_c": None,
    }
    if m > 1.0 - 2.0 / (d - 1):
        return out  # no fold, no kappa_c
    sb = 1.0 / ((1.0 - m) * d - 1.0)
    alpha_bar = (1.0 - 2.0 * sb + m * sb) / ((1.0 - sb) * (2.0 - m))
    k3 = k2 * (1.0 - m) * sb / (1.0 - sb) * (1.0 - alpha_bar) ** (m - 2.0)
    entropy = area_sdm1 ** (1.0 - m) * _eta1_mass(q + 1.0, d) * i0 ** (-m)
    e_uniform_0 = area_sd ** (1.0 - m) / (m - 1.0)

    def kappa_of(alpha: float) -> float:
        return (1.0 - alpha) ** (m - 1.0) * k2 * sb / (sb + alpha * (1.0 - sb))

    def gap(alpha: float) -> float:
        # E_uniform - E_singular along the upper branch
        com = alpha + (1.0 - alpha) * sb
        return (
            e_uniform_0
            - (1.0 - alpha) ** m * entropy / (m - 1.0)
            + 0.5 * kappa_of(alpha) * com * com
        )

    lo, hi = alpha_bar, alpha_bar
    while kappa_of(hi) < k1:
        hi = 1.0 - 0.5 * (1.0 - hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    kc = kappa_of(0.5 * (lo + hi))
    out.update(regime="case_iii", kappa3=k3, alpha_bar=alpha_bar, kappa_c=kc)
    return out


def critical_mismatches(payload: dict, ref: dict) -> list[str]:
    """Differences between one ``critical`` JSON payload and its reference."""
    bad = []
    for key, want in ref.items():
        got = payload.get(key)
        if want is None or got is None or isinstance(want, str):
            if want != got:
                bad.append(f"{key}: got {got!r}, want {want!r}")
            continue
        if key == "kappa_c":
            tol = KAPPA_C_REL_TOL * abs(want) + KAPPA_C_ABS_TOL
        else:
            tol = CLOSED_FORM_REL_TOL * abs(want)
        if not abs(got - want) <= tol:
            bad.append(f"{key}: got {got!r}, want {want!r} (rel {_rel(got, want):.2e})")
    return bad


def _sweep_row(rec: dict) -> tuple:
    return (
        float(rec["kappa"]),
        rec["branch"],
        float(rec["alpha"]) if rec["alpha"] else None,
        float(rec["com_norm"]),
        float(rec["energy"]),
    )


def parse_sweep_csv(text: str) -> list[tuple]:
    """(kappa, branch, alpha, com_norm, energy) per row; eta is dropped."""
    return [_sweep_row(rec) for rec in csv.DictReader(text.splitlines())]


def load_sweep_reference() -> dict[tuple[str, int], list[tuple]]:
    """Golden rows keyed by (sweep name, grid offset index)."""
    table: dict[tuple[str, int], list[tuple]] = {}
    with open(SWEEP_REF, newline="") as handle:
        for rec in csv.DictReader(handle):
            table.setdefault((rec["sweep"], int(rec["offset"])), []).append(_sweep_row(rec))
    return table


def sweep_mismatches(rows: list[tuple], ref: list[tuple]) -> list[str]:
    """Row keys must match exactly; alpha, com_norm, energy to SWEEP_REL_TOL."""
    if [r[:2] for r in rows] != [r[:2] for r in ref]:
        got = {r[:2] for r in rows}
        want = {r[:2] for r in ref}
        return [
            f"row keys differ: {len(got - want)} unexpected, {len(want - got)} missing, "
            f"e.g. {sorted(got ^ want)[:3]!r}"
        ]
    bad = []
    for got, want in zip(rows, ref):
        for name, g, w in zip(("alpha", "com_norm", "energy"), got[2:], want[2:]):
            if (g is None) != (w is None) or (
                g is not None and not _rel(g, w) <= SWEEP_REL_TOL
            ):
                bad.append(f"{name} at kappa={got[0]!r} ({got[1]}): got {g!r}, want {w!r}")
    return bad
