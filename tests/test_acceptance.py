"""Acceptance suite: one test per shipping criterion, each printed PASS/FAIL.

Expected values marked as published figures are asserted at the stated
absolute tolerances; everything else is checked against independent
oracles (closed forms, the high-precision integral oracle in conftest, or
finite differences of the analytic identities).
"""

import numpy as np
import pytest

from conftest import mp_theta_integral, read_sweep
from fastsphere import energy as en
from fastsphere import equilibria as eq
from fastsphere import verification
from fastsphere.cli import main
from fastsphere.model import RegimeCase, classify_regime, sphere_geometry


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_01_kappa1_reproduction():
    published = {(2, 0.5): 5.3174, (3, 0.25): 9.3648, (5, 0.3): 19.9199}
    worst = 0.0
    for (d, m), expected in published.items():
        got = en.critical_set(d, m).kappa1
        worst = max(worst, abs(got - expected))
        assert got == pytest.approx(expected, abs=5e-4)
    report("criterion-01 kappa1 reproduction", f"max |deviation| = {worst:.2e} (tol 5e-4)")


def test_criterion_02_kappa3_over_kappa2_ratio():
    crit = en.critical_set(5, 0.3)
    ratio = crit.kappa3 / crit.kappa2
    assert ratio == pytest.approx(0.88502, abs=1e-3)
    assert ratio == pytest.approx(15.8088 / 17.8623, abs=1e-3)
    report("criterion-02 kappa3/kappa2 ratio", f"ratio = {ratio:.6f} (0.88502 +- 1e-3)")


def passes(check):
    """Run a verify check against its threshold, and assert it passes."""
    result = check()
    assert result.passed, (result.name, result.measured, result.tolerance, result.lines)
    return result


def test_criterion_03_kappa2_dual_oracle():
    result = passes(verification.check_kappa2_dual_oracle)
    # the reported reference figure for (3, 0.25) is NOT ground truth here
    closed = en.critical_set(3, 0.25).kappa2
    assert abs(closed - 12.4453) / closed > 0.1
    report(
        "criterion-03 kappa2 dual-oracle consistency",
        f"max rel diff = {result.measured:.2e} (tol 1e-8); both oracles sit near "
        f"{closed:.4f} for (3, 0.25), away from the reported 12.4453; "
        + "; ".join(result.lines),
    )


def test_criterion_04_s_bar_closed_form_vs_quadrature():
    # relative to s_bar < 1, so tighter than the absolute 1e-8 of the criterion
    result = passes(verification.check_com_norm_closed_form)
    report(
        "criterion-04 s_bar closed form vs quadrature",
        f"max rel diff = {result.measured:.2e} (tol 1e-8)",
    )


def test_criterion_05_branch_limit():
    result = passes(verification.check_branch_limit_matches_kappa1)
    report(
        "criterion-05 uniform-limit of the branch function",
        f"max |H*kappa1 - 1| = {result.measured:.2e} (tol 1e-9)",
    )


def test_criterion_06_branch_monotonicity():
    # tolerance 0: every step must be strict in the regime direction
    result = passes(verification.check_branch_monotone_direction)
    report(
        "criterion-06 branch-function monotonicity",
        "strict in the regime direction on 20 log-spaced eta for all five pairs; "
        + "; ".join(result.lines),
    )


def test_criterion_07_branch_self_consistency():
    worst_mass = 0.0
    worst_moment = 0.0
    for d, m in ((2, 0.5), (3, 0.25), (5, 0.3)):
        crit = en.critical_set(d, m)
        k1, k2 = crit.kappa1, crit.kappa2
        tag = classify_regime(d, m).tag
        if tag is RegimeCase.CASE_I:
            grid = np.linspace(1.05 * k1, 3.0 * k1, 10)
        elif tag is RegimeCase.CASE_II:
            grid = np.linspace(k1 + 0.05 * (k2 - k1), k2 - 0.05 * (k2 - k1), 10)
        else:
            grid = np.linspace(k2 + 0.05 * (k1 - k2), k1 - 0.05 * (k1 - k2), 10)
        q = 1.0 / (m - 1.0)
        dwd = sphere_geometry(d).area_sdm1
        for state in eq.fully_supported_states(grid.tolist(), d, m):
            pref = (m / ((1.0 - m) * state.kappa * state.s)) ** (1.0 / (1.0 - m))
            eta = 1.0 + state.eta_minus_1
            mass = dwd * pref * mp_theta_integral(eta, q, 0, d)
            moment = dwd * pref * mp_theta_integral(eta, q, 1, d)
            worst_mass = max(worst_mass, abs(mass - 1.0))
            worst_moment = max(worst_moment, abs(moment - state.s))
            assert mass == pytest.approx(1.0, abs=1e-8)
            assert moment == pytest.approx(state.s, abs=1e-8)
    report(
        "criterion-07 branch self-consistency",
        f"30 states: max |mass - 1| = {worst_mass:.2e}, "
        f"max |moment - s| = {worst_moment:.2e} (tol 1e-8)",
    )


def test_criterion_08_slope_identities():
    result = passes(verification.check_energy_slope_identities)
    report(
        "criterion-08 energy slope identities",
        f"max rel FD deviation = {result.measured:.2e} over 10 samples (tol 1e-4)",
    )


def test_criterion_09_global_minimizer_classification():
    grids = {
        (2, 0.5): np.linspace(4.0, 12.0, 50),
        (3, 0.25): np.linspace(8.0, 17.0, 50),
        (5, 0.3): np.linspace(15.0, 21.0, 50),
    }
    transitions = {}
    for (d, m), grid in grids.items():
        tags = []
        for kappa in grid:
            rep = en.classify_minimizer(float(kappa), d, m)
            energies = {
                "uniform": rep.e_uniform,
                "fully_supported": rep.e_fully_supported,
                "singular_upper": rep.e_singular_upper,
                "singular_lower": rep.e_singular_lower,
            }
            populated = {k: v for k, v in energies.items() if v is not None}
            assert rep.minimizer == min(populated, key=populated.get), (d, m, kappa)
            tags.append(rep.minimizer)
        switches = [
            (float(grid[i]), float(grid[i + 1]), tags[i], tags[i + 1])
            for i in range(len(tags) - 1)
            if tags[i] != tags[i + 1]
        ]
        transitions[(d, m)] = switches

    k1 = en.critical_set(2, 0.5).kappa1
    (lo, hi, a, b), = transitions[(2, 0.5)]
    assert a == "uniform" and b == "fully_supported" and lo < k1 < hi

    crit = en.critical_set(3, 0.25)
    k1, k2 = crit.kappa1, crit.kappa2
    first, second = transitions[(3, 0.25)]
    assert first[2] == "uniform" and first[3] == "fully_supported" and first[0] < k1 < first[1]
    assert second[2] == "fully_supported" and second[3] == "singular_upper"
    assert second[0] < k2 < second[1]

    kc = en.kappa_c(5, 0.3)
    crit = en.critical_set(5, 0.3)
    (lo, hi, a, b), = transitions[(5, 0.3)]
    assert a == "uniform" and b == "singular_upper" and lo < kc < hi
    assert crit.kappa3 < kc < crit.kappa1
    report(
        "criterion-09 global minimizer classification",
        "tags equal the energy argmin on all 150 grid points; transitions bracket "
        f"kappa1 (case_i/ii), kappa2 (case_ii) and kappa_c = {kc:.6f} in (kappa3, kappa1)",
    )


def _sweep_rows(tmp_path, name, argv):
    path = tmp_path / name
    assert main(argv + ["--out", str(path)]) == 0
    return read_sweep(path.read_text())


def test_criterion_10_bifurcation_diagram_shape(tmp_path):
    # case i: com norm rises from 0 at kappa1 towards 1
    rows = _sweep_rows(
        tmp_path,
        "case_i.csv",
        ["sweep", "--d", "2", "--m", "0.5", "--kappa-min", "4", "--kappa-max", "40",
         "--steps", "73"],
    )
    fs = [(r["kappa"], r["com_norm"]) for r in rows if r["branch"] == "fully_supported"]
    k1 = en.critical_set(2, 0.5).kappa1
    assert min(k for k, _ in fs) > k1
    coms = [c for _, c in fs]
    assert coms == sorted(coms)
    assert coms[0] < 0.35 and coms[-1] > 0.9

    # case ii: supported branch hands off to the measure-valued one at kappa2
    rows = _sweep_rows(
        tmp_path,
        "case_ii.csv",
        ["sweep", "--d", "3", "--m", "0.25", "--kappa-min", "9", "--kappa-max", "18",
         "--steps", "91"],
    )
    k2 = en.critical_set(3, 0.25).kappa2
    supported = [r["kappa"] for r in rows if r["branch"] == "fully_supported"]
    singular = [r["kappa"] for r in rows if r["branch"] == "singular_upper"]
    assert max(supported) < k2 <= min(singular)

    # case iii: a two-branch fold exactly on (kappa3, kappa2); the lower branch
    # meets the supported branch value s_bar at kappa2
    rows = _sweep_rows(
        tmp_path,
        "case_iii.csv",
        ["sweep", "--d", "5", "--m", "0.3", "--kappa-min", "15", "--kappa-max", "21",
         "--steps", "241"],
    )
    crit = en.critical_set(5, 0.3)
    k3, k2 = crit.kappa3, crit.kappa2
    lower = [(r["kappa"], r["com_norm"]) for r in rows if r["branch"] == "singular_lower"]
    upper = [r["kappa"] for r in rows if r["branch"] == "singular_upper"]
    assert min(k for k, _ in lower) >= k3 and max(k for k, _ in lower) < k2
    assert min(upper) >= k3
    last_lower_com = max(lower)[1]
    assert last_lower_com == pytest.approx(eq.s_bar(5, 0.3), abs=0.02)
    report(
        "criterion-10 bifurcation diagram shape",
        "case_i growth from 0 towards 1, case_ii handoff at kappa2, case_iii fold "
        "confined to (kappa3, kappa2) with the lower branch meeting s_bar",
    )


def test_criterion_11_sweep_determinism(tmp_path):
    argv = ["sweep", "--d", "5", "--m", "0.3", "--kappa-min", "15", "--kappa-max", "21",
            "--steps", "41"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report("criterion-11 sweep determinism", "two identical runs are byte-identical")
