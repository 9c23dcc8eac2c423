import hashlib
import inspect
import json
import math
import multiprocessing
import os
import re
import warnings

import numpy as np
import pytest

from opmeans import errors, inequalities, psd_core
from opmeans.inequalities import (
    FAMILIES,
    CampaignConfig,
    check_ah_family,
    check_arithmetic_power_reverse,
    check_compression_reverse,
    check_implication_equivalence,
    check_log_majorization,
    check_modified,
    check_reverse,
    check_two_var,
    find_reverse_improvement,
    kantorovich,
    lie_trotter_gap,
    optimality_scan,
    recheck,
    run_campaign,
    run_cell,
    verify_counterexample,
)
from opmeans.meanfns import (
    arithmetic,
    deformed_rep,
    geometric,
    harmonic,
    left_trivial,
    rep_eval,
    rep_transform,
    repfn_from_json,
)
from opmeans.multimeans import MultiMeanSpec, Weights, eval_mean, eval_mean_stack, power_mean
from opmeans.psd_core import Spectral, matrix_from_json, random_spd, spd_power, sym, validate_spd

W3 = Weights((0.2, 0.3, 0.5))
UNI3 = Weights.uniform(3)


def ensemble(dim, n, base_seed, spectrum=(0.5, 2.0)):
    return [random_spd(dim, spectrum, base_seed + j) for j in range(n)]


# ----------------------------------------------------------- Kantorovich


def test_kantorovich_at_one():
    # p = 0 and p = 1 are removable points with value 1, approached continuously
    for h in (1.5, 2.0, 10.0):
        assert kantorovich(h, 1) == pytest.approx(1.0, abs=1e-10)
        assert kantorovich(h, 0) == 1.0
        assert kantorovich(h, 1e-9) == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_array_equal(kantorovich(np.array([2.0, 3.0]), 0), [1.0, 1.0])


def test_kantorovich_hand_value():
    # (4-2)/(1*1) * ((1/2)*(3/2))**2 = 2 * 9/16 = 9/8
    assert kantorovich(2.0, 2.0) == pytest.approx(9.0 / 8.0, rel=1e-12)


def test_kantorovich_rejects_h_below_one():
    with pytest.raises(errors.BadH):
        kantorovich(1.0, 2.0)
    with pytest.raises(errors.BadH):
        kantorovich(0.5, 2.0)
    # non-finite h or p has no constant
    nonfinite = ((math.nan, 2.0), (math.inf, 2.0), (np.array([2.0, math.inf]), 2.0), (2.0, math.nan), (2.0, math.inf))
    for h, p in nonfinite:
        with pytest.raises(errors.BadH):
            kantorovich(h, p)


def test_kantorovich_bounds_and_monotonicity():
    h, p = 3.0, 2.0
    ts = np.linspace(0.05, 4.0, 40)
    vals = np.array([kantorovich(h**t, p) ** (1 / t) for t in ts])
    assert np.all(vals >= 1.0 - 1e-12)
    assert np.all(vals <= h ** (p - 1) + 1e-12)
    assert np.all(np.diff(vals) >= -1e-10)


def test_kantorovich_limit_to_one():
    for h in (2.0, 5.0):
        assert kantorovich(h**1e-6, 2.0) ** 1e6 == pytest.approx(1.0, abs=1e-3)


def test_kantorovich_near_one_exponent_stable():
    k = kantorovich(3.0, 1.0 + 1e-9)
    assert k == pytest.approx(1.0, abs=1e-6)


def test_kantorovich_without_overflow():
    # K(h, 2) = K(h, -1) = (h + 1)^2 / (4h); h^p itself would overflow
    h = 1e200
    assert kantorovich(h, 2.0) == pytest.approx(h / 4 + 0.5, rel=1e-12)
    assert kantorovich(h, -1.0) == pytest.approx(h / 4 + 0.5, rel=1e-12)
    for hh in (1.5, 3.0, 1e5):
        for p in (-2.5, 0.3, 2.0, 7.0):
            assert kantorovich(hh, p) == pytest.approx(kantorovich(hh, 1.0 - p), rel=1e-13)
    # constants beyond the float range are inf, with no RuntimeWarning
    assert kantorovich(2.0, 2000.0) == math.inf
    assert kantorovich(2.0, -2000.0) == math.inf
    for p in (1e300, 1e308, -1e308):
        np.testing.assert_array_equal(kantorovich(np.array([2.0, 1e308]), p), [math.inf, math.inf])


@pytest.mark.parametrize("h", [1 + 2**-52, 1 + 2**-40, 1 + 1e-9, 2.0, 1e10])
def test_kantorovich_against_mpmath(h):
    # the closed form in 60 digits; near h = 1 at large |p| the value is 1
    # plus a correction that a difference of nearly equal logs would lose
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(60):
        for p in (1e10, -1e10, 1e8, -1e8, 1e4, -1e4, -3.0, 0.5, 2.0, 10.0):
            hh, pp = mp.mpf(h), mp.mpf(p)
            hp = hh**pp
            exact = (hp - hh) / ((pp - 1) * (hh - 1)) * ((pp - 1) / pp * (hp - 1) / (hp - hh)) ** pp
            k = kantorovich(h, p)
            if exact > np.finfo(float).max:
                assert k == math.inf, p
            else:
                assert abs(k - exact) <= 1e-12 * exact, p
            # K <= 1 on 0 < p < 1 and K >= 1 elsewhere, also where only rounding separates K from 1
            assert k <= 1.0 if 0 < p < 1 else k >= 1.0, p


# ----------------------------------------------------------- section-3 checks


def test_ah_family_margin_zero_at_r_one():
    As = ensemble(3, 3, 10)
    for variant in ("3.1", "3.2", "3.3", "3.4"):
        rep = check_ah_family(MultiMeanSpec.power(W3, 0.5), As, 1.0, variant)
        assert rep.holds and rep.margin == 0.0


def test_ah_family_r_range_validation():
    As = ensemble(2, 3, 11)
    with pytest.raises(errors.BadR):
        check_ah_family(MultiMeanSpec.power(W3, 0.5), As, 0.5, "3.1")
    with pytest.raises(errors.BadR):
        check_ah_family(MultiMeanSpec.power(W3, 0.5), As, 2.0, "3.3")


def test_ah_family_karcher_two_sided():
    As = ensemble(4, 3, 12)
    for variant in ("3.1", "3.2"):
        rep = check_ah_family(MultiMeanSpec.karcher(W3), As, 2.0, variant)
        assert rep.holds, rep.margin
    for variant in ("3.3", "3.4"):
        rep = check_ah_family(MultiMeanSpec.karcher(W3), As, 0.5, variant)
        assert rep.holds, rep.margin


def scalar_power_mean(w, alpha, vals):
    return (np.sum(w * np.asarray(vals) ** alpha)) ** (1 / alpha)


def test_ah_family_commuting_scalar_oracle():
    # diagonal inputs decouple into independent scalar inequalities
    w = np.array([0.3, 0.7])
    d1, d2 = [1.0, 3.0], [2.0, 0.8]
    As = [validate_spd(np.diag(d1)), validate_spd(np.diag(d2))]
    alpha, r = 0.5, 2.0
    spec = MultiMeanSpec.power(Weights(tuple(w)), alpha)
    rep = check_ah_family(spec, As, r, "3.1")
    base = np.array([scalar_power_mean(w, alpha, [d1[i], d2[i]]) for i in range(2)])
    powd = np.array([scalar_power_mean(w, alpha, [d1[i] ** r, d2[i] ** r]) for i in range(2)])
    pref = base.min() ** (r - 1)
    expect_margin = (powd - pref * base).min() / (powd.max() + (pref * base).max())
    assert rep.margin == pytest.approx(expect_margin, rel=1e-8)
    assert rep.holds


# ------------------------------------------------------------ modified checks


def test_modified_karcher_reduces_to_ah():
    # a geometric deformation leaves the multivariate geometric mean fixed
    As = ensemble(3, 3, 13)
    repm = check_modified(MultiMeanSpec.karcher(W3), geometric(0.5), As, 2.0, "4.1")
    assert repm.holds
    direct_lo = check_ah_family(MultiMeanSpec.karcher(W3), As, 2.0, "3.1")
    direct_hi = check_ah_family(MultiMeanSpec.karcher(W3), As, 2.0, "3.2")
    expect = min(direct_lo.margin, direct_hi.margin)
    assert repm.margin == pytest.approx(expect, rel=1e-6, abs=1e-9)


def test_modified_power_mean_instances():
    As = ensemble(3, 3, 14)
    rep = check_modified(MultiMeanSpec.arithmetic(W3), geometric(0.5), As, 2.0, "4.1")
    assert rep.holds
    rep = check_modified(MultiMeanSpec.arithmetic(W3), geometric(0.5), As, 0.5, "4.2")
    assert rep.holds
    rep = check_modified(MultiMeanSpec.harmonic(W3), harmonic(0.4), As, 2.0, "4.1")
    assert rep.holds


def test_modified_r_one_equal():
    As = ensemble(2, 3, 15)
    rep = check_modified(MultiMeanSpec.arithmetic(W3), geometric(0.5), As, 1.0, "4.1")
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_modified_power_mean_identity_across_routes():
    # the deformation route and the direct power-mean route agree
    As = ensemble(3, 3, 16)
    r, alpha = 2.0, 0.5
    via_deform = eval_mean(
        MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(W3), geometric(alpha / r)),
        As,
    ).value.a
    direct = power_mean(W3, alpha / r, As).value.a
    assert np.abs(via_deform - direct).max() / np.abs(direct).max() < 1e-9


# ------------------------------------------------------------ two-var checks


def test_two_var_geometric_reproduces_classical_form():
    a = random_spd(3, (0.5, 2.0), 17)
    b = random_spd(3, (0.5, 2.0), 18)
    for r in (1.0, 1.5, 3.0):
        rep = check_two_var(geometric(0.3), None, a, b, r, "4.8")
        assert rep.holds, rep.margin


def test_two_var_all_variants_hold():
    a = random_spd(2, (0.5, 2.0), 19)
    b = random_spd(2, (0.5, 2.0), 20)
    assert check_two_var(arithmetic(0.4), geometric(0.5), a, b, 2.0, "4.6").holds
    assert check_two_var(arithmetic(0.4), geometric(0.5), a, b, 0.5, "4.7").holds
    assert check_two_var(harmonic(0.6), None, a, b, 2.0, "4.8").holds
    assert check_two_var(harmonic(0.6), None, a, b, 0.5, "4.9").holds


def test_two_var_equal_inputs_r_one():
    a = random_spd(3, (0.5, 2.0), 21)
    rep = check_two_var(arithmetic(0.5), geometric(0.5), a, a, 1.0, "4.6")
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_two_var_commuting_oracle():
    # commuting pair: every quantity is a scalar identity per eigenvalue
    a = validate_spd(np.diag([1.0, 2.0]))
    b = validate_spd(np.diag([4.0, 1.0]))
    tau, r = arithmetic(0.5), 2.0
    rep = check_two_var(tau, None, a, b, r, "4.8")
    x = np.array([rep_eval(tau, 4.0), rep_eval(tau, 0.5)]) * np.array([1.0, 2.0])
    mid = np.array(
        [rep_eval(tau, 16.0 ** (1 / r)) ** r, 4.0 * rep_eval(tau, 0.25 ** (1 / r)) ** r]
    )
    lo = ((mid - x.min() ** (r - 1) * x) / (np.abs(mid).max() + (x.min() ** (r - 1) * np.abs(x)).max())).min()
    hi = ((x.max() ** (r - 1) * x - mid) / (np.abs(mid).max() + (x.max() ** (r - 1) * np.abs(x)).max())).min()
    assert rep.margin == pytest.approx(min(lo, hi), rel=1e-8)


def test_two_var_bad_r():
    a = random_spd(2, (0.5, 2.0), 22)
    with pytest.raises(errors.BadR):
        check_two_var(arithmetic(0.5), geometric(0.5), a, a, 0.5, "4.6")
    with pytest.raises(errors.BadR):
        check_two_var(arithmetic(0.5), geometric(0.5), a, a, 2.0, "4.7")


# -------------------------------------------------- scalar-matrix equivalence


def test_equivalence_geometric_pair():
    rep = check_implication_equivalence(geometric(0.5), geometric(0.5), 2.0)
    assert rep.holds and rep.constants["scalar_holds"] and rep.constants["matrix_holds"]


def test_equivalence_detects_failure_and_lifts():
    # a thin geometric target cannot dominate the arithmetic source
    rep = check_implication_equivalence(geometric(0.1), arithmetic(0.5), 2.0)
    assert not rep.constants["scalar_holds"]
    assert not rep.constants["matrix_holds"]
    assert rep.holds  # verdicts agree, which is the tested equivalence


def test_equivalence_r_one_reduces_to_pointwise_domination():
    rep = check_implication_equivalence(arithmetic(0.5), harmonic(0.5), 1.0)
    # arithmetic dominates harmonic pointwise
    assert rep.constants["scalar_holds"] and rep.holds


# ------------------------------------------------------------ reverse checks


def test_reverse_family_instances_hold():
    As = ensemble(3, 3, 23, spectrum=(1.0, 4.0))
    for which, alpha in [("5.4", 0.5), ("5.5", -0.5), ("5.8", 0.5), ("5.9", 0.5), ("5.10", None)]:
        rep = check_reverse(W3, alpha, As, 2.0, which, (1.0, 4.0))
        assert rep.holds, (which, rep.margin)
        assert rep.constants["kappa0"] == pytest.approx(4.0)


def test_reverse_bounds_checked():
    As = ensemble(3, 3, 24, spectrum=(0.5, 2.0))
    with pytest.raises(errors.BoundsViolated):
        check_reverse(W3, 0.5, As, 2.0, "5.4", (1.0, 1.5))
    with pytest.raises(errors.BadR):
        check_reverse(W3, 0.5, As, 0.5, "5.4", (0.5, 2.0))
    with pytest.raises(errors.BadR):
        check_reverse(W3, -0.5, As, 2.0, "5.4", (0.5, 2.0))
    # m == M leaves no spread for a Kantorovich constant, even on inputs
    # inside the bounds: a bounds error, not BadH from inside K
    eye = validate_spd(np.eye(2))
    for r in (1.0, 2.0):
        with pytest.raises(errors.BoundsViolated):
            check_arithmetic_power_reverse(UNI3, [eye] * 3, r, (1.0, 1.0))
        with pytest.raises(errors.BoundsViolated):
            check_reverse(UNI3, None, [eye] * 3, r, "5.10", (1.0, 1.0))
    for mu in (0.5, 1.0):
        with pytest.raises(errors.BoundsViolated):
            check_compression_reverse(eye, eye, 2.0, 1.0, 1.0, mu)


def test_bounded_checks_need_a_finite_pair_of_bounds():
    # missing or malformed bounds are a typed error, never a TypeError or IndexError
    As = ensemble(3, 3, 24, spectrum=(0.5, 2.0))
    a, c = validate_spd(np.eye(2)), validate_spd(np.sqrt(0.5) * np.eye(2))
    for call in (
        lambda: check_reverse(W3, 0.5, As, 2.0, "5.4", None),
        lambda: check_arithmetic_power_reverse(W3, As, 2.0, None),
        lambda: check_arithmetic_power_reverse(W3, As, 2.0, (1.0,)),
        lambda: check_reverse(W3, 0.5, As, 2.0, "5.9", (0.5, 2.0, 3.0)),
        lambda: check_reverse(W3, 0.5, As, 2.0, "5.9", (0.5, np.inf)),
        lambda: check_reverse(W3, 0.5, As, 2.0, "5.9", (np.nan, 2.0)),
        lambda: check_compression_reverse(a, c, 2.0, None, 1.01, 0.4),
    ):
        with pytest.raises(errors.BoundsViolated):
            call()


def test_unbounded_families_take_no_bounds():
    As = ensemble(3, 3, 24, spectrum=(0.5, 2.0))
    with pytest.raises(errors.BoundsViolated, match="takes no bounds"):
        inequalities._witness_cell("3.13", As, bounds=(0.5, 2.0))
    assert inequalities._witness_cell("3.13", As).bounds == (None, None)


def test_families_without_alpha_ignore_one():
    # 3.13/3.14 bracket the Karcher mean, whatever alpha a caller passes
    for family, r in (("3.13", 2.0), ("3.14", 0.5)):
        data = inequalities._gen_cell_data(family, 2, None, 4, 3)
        given = run_cell(family, 2, r, 0.5, 4, 3, data=data)
        assert given.margin == run_cell(family, 2, r, None, 4, 3, data=data).margin


def test_reverse_k_at_least_one():
    # the reverse prefactor can never beat equality at r = 1
    As = ensemble(3, 3, 25, spectrum=(1.0, 4.0))
    rep = check_reverse(W3, None, As, 1.0, "5.10", (1.0, 4.0))
    assert rep.holds and rep.margin == pytest.approx(0.0, abs=1e-12)
    rep2 = check_reverse(W3, None, As, 2.0, "5.10", (1.0, 4.0))
    assert rep2.constants["K1"] >= 1.0


def test_reverse_scalar_multiples_trivially_hold():
    # inputs that are exact multiples of the identity: the mean collapses,
    # kappa(X) = 1, and the slack is exactly K >= 1
    c, eps = 2.0, 1e-3
    As = [validate_spd(c * np.eye(2)) for _ in range(3)]
    rep = check_reverse(UNI3, 0.5, As, 2.0, "5.4", (c - eps, c + eps))
    assert rep.holds and rep.margin >= 0
    assert rep.constants["kappa_x"] == pytest.approx(1.0, abs=1e-12)


def test_reverse_aligned_narrow_inputs_are_true_negatives():
    # identical diagonal inputs with any spread make kappa(X) equal the
    # input ratio while the Kantorovich slack is only quadratic in it, so
    # the stated bound genuinely fails; the check must say so
    c, eps = 2.0, 1e-3
    As = [validate_spd(np.diag([c - eps, c + eps])) for _ in range(3)]
    rep = check_reverse(UNI3, 0.5, As, 2.0, "5.4", (c - eps, c + eps))
    assert not rep.holds
    assert rep.matrices is not None


def test_compression_reverse_identity_compressor():
    a = random_spd(3, (1.0, 3.0), 26)
    rep = check_compression_reverse(a, validate_spd(np.eye(3)), 2.0, 1.0, 3.0, 1.0)
    assert rep.holds


def test_compression_reverse_diagonal_oracle():
    a = validate_spd(np.diag([1.0, 3.0]))
    c = validate_spd(np.diag([1.0, np.sqrt(0.5)]))
    r, m, M, mu = 2.0, 1.0, 3.0, 0.5
    rep = check_compression_reverse(a, c, r, m, M, mu)
    k = kantorovich(M / (m * mu), r)
    lhs = np.array([1.0, 0.5 * 9.0])
    rhs = k * np.array([1.0, (0.5 * 3.0) ** r])
    expect = ((rhs - lhs) / (lhs.max() + rhs.max())).min()
    assert rep.margin == pytest.approx(expect, rel=1e-10)


def test_compression_reverse_has_true_negatives():
    # the stated constant is too small when the input spread is narrow: with
    # C = sqrt(mu) I the inequality needs K(M/(m mu), r) >= mu^(1-r), which
    # fails as M/m approaches 1 (here K(2.525, 2) = 1.23 < 2.5)
    a = random_spd(2, (1.0, 1.01), 27)
    c = validate_spd(np.sqrt(0.4) * np.eye(2))
    rep = check_compression_reverse(a, c, 2.0, 1.0, 1.01, 0.4)
    assert not rep.holds
    assert rep.matrices is not None
    assert kantorovich(1.01 / 0.4, 2.0) < 0.4 ** (1 - 2.0)


def test_arithmetic_power_reverse():
    As = ensemble(3, 3, 28, spectrum=(1.0, 3.0))
    rep = check_arithmetic_power_reverse(W3, As, 2.0, (1.0, 3.0))
    assert rep.holds
    # equal inputs: slack comes only from K >= 1
    a = random_spd(3, (1.0, 3.0), 29)
    rep = check_arithmetic_power_reverse(UNI3, [a, a, a], 2.0, (1.0, 3.0))
    assert rep.holds
    # n = 2 random pair with pinned spectrum
    pair = ensemble(3, 2, 290, spectrum=(1.0, 3.0))
    rep = check_arithmetic_power_reverse(Weights((0.5, 0.5)), pair, 2.0, (1.0, 3.0))
    assert rep.holds
    # scalar grid oracle: the worst two-point configuration stays below K
    w_grid = np.linspace(0.01, 0.99, 99)
    vals = np.array([1.0, 3.0])
    lhs = w_grid * vals[0] ** 2 + (1 - w_grid) * vals[1] ** 2
    rhs = kantorovich(3.0, 2.0) * (w_grid * vals[0] + (1 - w_grid) * vals[1]) ** 2
    assert np.all(lhs <= rhs + 1e-12)


# ------------------------------------------------------------- limit theorems


def test_lie_trotter_commuting_is_exact():
    # the multivariate geometric mean of commuting inputs is the entrywise
    # geometric mean, which matches the limit at every p
    As = [validate_spd(np.diag([1.0, 2.0])), validate_spd(np.diag([3.0, 0.7]))]
    gaps = lie_trotter_gap(MultiMeanSpec.karcher(Weights((0.5, 0.5))), As)
    assert max(gaps) < 1e-9


def test_lie_trotter_gaps_shrink():
    As = ensemble(3, 3, 31, spectrum=(0.6, 1.8))
    gaps = lie_trotter_gap(MultiMeanSpec.power(W3, 0.5), As)
    diffs = np.diff(gaps)
    assert np.all(diffs <= 1e-9)
    assert gaps[-1] < 0.05


def test_lie_trotter_single_input_exact():
    a = random_spd(3, (0.5, 2.0), 32)
    gaps = lie_trotter_gap(MultiMeanSpec.power(Weights((1.0,)), 0.5), [a])
    assert max(gaps) < 1e-9


@pytest.mark.parametrize("p", [0.0, -0.0, math.inf, -math.inf, math.nan])
def test_lie_trotter_rejects_bad_exponent(p):
    As = ensemble(2, 2, 34)
    with pytest.raises(errors.BadR):
        lie_trotter_gap(MultiMeanSpec.power(Weights((0.5, 0.5)), 0.5), As, [1.0, p])


def test_sandwich_failure_reports_normalized_margins(monkeypatch):
    # a threshold of -1 fails every sandwich; the margins it reports are
    # normalized, so they read the same at every scale
    monkeypatch.setattr(inequalities, "CHECK_TOL", -1.0)
    As = ensemble(3, 3, 31, spectrum=(0.6, 1.8))
    margins = []
    for scale in (1.0, 2.0**300):
        with pytest.raises(errors.SandwichFails) as info:
            lie_trotter_gap(MultiMeanSpec.power(W3, 0.5), [validate_spd(scale * a.a) for a in As])
        margins.append([float(m) for m in re.findall(r"-?\d\.\d+e[-+]\d+", str(info.value))])
    assert len(margins[0]) == 2 and all(0 <= m < 1 for m in margins[0])
    np.testing.assert_allclose(margins[1], margins[0], rtol=1e-2)


@pytest.mark.parametrize(
    "check",
    [
        lambda As: check_ah_family(MultiMeanSpec.karcher(UNI3), As, 2.0, "3.9"),
        lambda As: check_modified(MultiMeanSpec.karcher(UNI3), geometric(0.5), As, 2.0, "4.4"),
        lambda As: check_two_var(geometric(0.5), None, As[0], As[1], 2.0, "5.3"),
        lambda As: check_reverse(UNI3, 0.5, As, 2.0, "5.3", (0.5, 2.0)),
    ],
    ids=["ah_family", "modified", "two_var", "reverse"],
)
def test_typed_checks_reject_a_label_they_do_not_check(check):
    # each label is a campaign family, not one of the check's own labels
    with pytest.raises(errors.UnknownKind, match="unknown"):
        check(ensemble(2, 3, 60))


def test_adjoint_side_norm_increases():
    # the norm of the adjoint-side mean of powered inputs increases to the
    # log-euclidean norm as the power shrinks
    As = ensemble(3, 3, 33, spectrum=(0.6, 1.8))
    w = W3.asarray()
    target = np.linalg.eigvalsh(
        sum(wi * np.linalg.eigh(a.a)[1] @ np.diag(np.log(np.linalg.eigvalsh(a.a))) @ np.linalg.eigh(a.a)[1].T
            for wi, a in zip(w, As))
    ).max()
    vals = []
    for p in (1.0, 0.5, 0.25, 0.125, 0.0625):
        mp = power_mean(W3, -0.5, [validate_spd(_mpow(a.a, p)) for a in As]).value.a
        vals.append(np.linalg.eigvalsh(mp).max() ** (1 / p))
    assert np.all(np.diff(vals) >= -1e-9)
    assert vals[-1] <= np.exp(target) + 1e-6


def _mpow(a, p):
    w, v = np.linalg.eigh(a)
    return (v * w**p) @ v.T


def test_log_majorization_r_one_all_equal():
    As = ensemble(3, 3, 34)
    rep = check_log_majorization(W3, As, 1.0)
    assert rep.holds
    assert rep.constants["equality_error"] < 1e-10


def test_log_majorization_commuting_oracle():
    d1, d2 = [1.0, 4.0], [2.0, 0.5]
    As = [validate_spd(np.diag(d1)), validate_spd(np.diag(d2))]
    w = Weights((0.5, 0.5))
    r = 0.5
    rep = check_log_majorization(w, As, r)
    g = np.sort([np.sqrt(d1[i] * d2[i]) for i in range(2)])[::-1]
    gr = np.sort([np.sqrt(d1[i] ** r * d2[i] ** r) for i in range(2)])[::-1]
    manual_first = (r - 1) * np.log(g[-1]) + np.log(g[0]) - np.log(gr[0])
    assert rep.holds
    assert rep.constants["worst_partial"] == pytest.approx(manual_first, abs=1e-9)


def test_log_majorization_random():
    As = ensemble(4, 3, 35)
    rep = check_log_majorization(W3, As, 0.5)
    assert rep.holds
    assert rep.constants["equality_error"] < 1e-8


# ---------------------------------------------------------- optimality scans


def test_scan_bracket_complement_finds_violation_for_r_above_one():
    cx = optimality_scan(arithmetic(0.5), 2.0, "prop_6_1")
    assert cx is not None
    assert cx.violated_id == "6.1"
    assert verify_counterexample(cx, arithmetic(0.5))
    # the scalar mechanism: f(x^r)^(1/r) > f(x^r) whenever f(x^r) < 1
    x = cx.family_params[0]
    fx = rep_eval(arithmetic(0.5), x**2.0)
    assert fx < 1 and fx**0.5 > fx


def test_scan_bracket_complement_none_in_valid_range():
    assert optimality_scan(arithmetic(0.5), 1.0, "prop_6_1") is None
    assert optimality_scan(arithmetic(0.5), 0.5, "prop_6_1") is None


def test_scan_escalation_finds_violation_below_one():
    cx = optimality_scan(harmonic(0.5), 0.5, "prop_6_2")
    assert cx is not None and cx.violated_id == "6.3"
    assert cx.epsilon_shift == pytest.approx(1e-9)
    assert verify_counterexample(cx, harmonic(0.5))


def test_scan_escalation_respects_valid_range():
    assert optimality_scan(geometric(0.5), 2.0, "prop_6_2") is None
    assert optimality_scan(harmonic(0.5), 1.0, "prop_6_2") is None


def test_scan_escalation_positive_at_zero_branch():
    # means with a positive value at zero (arithmetic) also fail below the
    # boundary, caught on the same grid
    cx = optimality_scan(arithmetic(0.5), 0.5, "prop_6_2")
    assert cx is not None and verify_counterexample(cx, arithmetic(0.5))
    assert optimality_scan(arithmetic(0.5), 2.0, "prop_6_2") is None


@pytest.mark.parametrize(
    "tau, r, mode, params, margin",
    [
        (arithmetic(0.5), 2.0, "prop_6_1", [0.001, None, None], -0.10355331736992485),
        (harmonic(0.5), 0.5, "prop_6_2", [0.05, 0.06746414238367815, 0.1], -2.7563257860417345e-05),
        (arithmetic(0.5), 0.5, "prop_6_2", [0.05, 0.06746414238367815, 0.1], -0.00020979839984224137),
    ],
)
def test_scan_first_counterexample_pinned(tau, r, mode, params, margin):
    # the first hit in grid order, as the one-candidate-at-a-time scan found it
    cx = optimality_scan(tau, r, mode).to_json()
    assert cx["family_params"] == pytest.approx(params, rel=1e-15)
    assert cx["violation_margin"] == pytest.approx(margin, rel=1e-15)


@pytest.mark.parametrize("mode", ["prop_6_1", "prop_6_2"])
def test_scan_grid_margins_match_single_candidates(mode):
    # the one batched pass gives every candidate the margin it has alone
    from opmeans import inequalities as ineq

    scan, margin = {
        "prop_6_1": (ineq._scan_bracket_complement, ineq._complement_margin),
        "prop_6_2": (ineq._scan_escalation, ineq._escalation_margin),
    }[mode]
    _, a, b, margins = scan(harmonic(0.5), 0.5)
    for k in range(0, len(margins), 37):
        assert margin(harmonic(0.5), 0.5, a[k : k + 1], b[k : k + 1])[0] == margins[k], k


def test_scan_input_validated():
    for mode in ("prop_6_1", "prop_6_2"):
        for r in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(errors.BadR):
                optimality_scan(harmonic(0.5), r, mode)


def test_scan_escalation_rejects_trivial_means():
    with pytest.raises(errors.BadMode):
        optimality_scan(left_trivial(), 0.5, "prop_6_2")
    with pytest.raises(errors.BadMode):
        optimality_scan(geometric(1.0), 0.5, "prop_6_2")
    with pytest.raises(errors.BadMode):
        optimality_scan(arithmetic(0.5), 0.5, "bogus")


def test_documented_witness_pair():
    # hand-checkable witness for the symmetric harmonic mean at r = 1/2:
    # ((sqrt x + sqrt y)/2)^2 = 0.7225 < 1 < (x + y)/2 = 1.025
    x, y = 1.96, 0.09
    assert ((np.sqrt(x) + np.sqrt(y)) / 2) ** 2 == pytest.approx(0.7225, abs=1e-12)
    assert (x + y) / 2 == pytest.approx(1.025, abs=1e-12)
    a = np.diag([1 / x, 1 / y])
    b = np.array([[0.5, 0.5], [0.5, 0.5]]) + 1e-9 * np.eye(2)
    from opmeans.inequalities import Counterexample, _two_var_arrays
    from opmeans.psd_core import SpdMatrix, op_norm

    beta = float(op_norm(_two_var_arrays(lambda t: rep_eval(harmonic(0.5), np.maximum(t, 1e-30)), a, b)))
    cx = Counterexample(
        family_params=(x, y, 0.5),
        matrices=(SpdMatrix(2, a / beta), SpdMatrix(2, b / beta)),
        r=0.5,
        violated_id="6.3",
        violation_margin=-1.0,
        epsilon_shift=1e-9,
    )
    assert verify_counterexample(cx, harmonic(0.5))


def test_find_reverse_improvement_instance():
    inst = find_reverse_improvement()
    assert inst is not None and inst["seed"] == 0
    assert 1.0 < inst["kappa0"] < 4.0
    assert inst["kappa_x"] > inst["threshold"]
    assert inst["K"] * 1.0 < inst["kappa_x"]  # K(k0*kx, 2) < kappa(X)


# ------------------------------------------------------- structural relations


def test_complement_implies_direct_under_substitution():
    # running the complement family at r on A reproduces the direct family
    # at 1/r on the r-th powers
    rng = np.random.default_rng(5)
    for trial in range(10):
        As = ensemble(3, 3, 9000 + 10 * trial)
        r = float(rng.choice([0.25, 0.5, 0.75]))
        karch = MultiMeanSpec.karcher(W3)
        comp_lo = check_ah_family(karch, As, r, "3.3")
        comp_hi = check_ah_family(karch, As, r, "3.4")
        powered = [validate_spd(_mpow(a.a, r)) for a in As]
        dir_lo = check_ah_family(karch, powered, 1 / r, "3.1")
        dir_hi = check_ah_family(karch, powered, 1 / r, "3.2")
        if comp_lo.holds and comp_hi.holds:
            assert dir_lo.holds and dir_hi.holds


def test_power_condition_chain_for_geometric_deformations():
    # with a power-monotone deformation every escalation check passes; the
    # arithmetic-harmonic blend passes only the tangent-line condition
    from opmeans.meanfns import arithmetic_harmonic_mix, condition_vi_margin, pmi_margin

    As = ensemble(3, 3, 9500)
    for r in (1.5, 2.0):
        rep = check_modified(MultiMeanSpec.karcher(W3), geometric(0.5), As, r, "4.1")
        assert rep.holds
        rep = check_ah_family(MultiMeanSpec.power(W3, 0.5), As, r, "3.1")
        assert rep.holds
    mix = arithmetic_harmonic_mix(0.25)
    assert pmi_margin(mix).worst_margin < 0
    assert condition_vi_margin(mix).worst_margin >= -1e-12


# ------------------------------------------------------------ campaign cells


def test_run_cell_basics():
    rep = run_cell("3.9", 2, 2.0, 0.5, trials=10, master_seed=3)
    assert rep.holds
    assert rep.inequality_id == "3.9[dim=2,r=2.0,alpha=0.5]"
    assert rep.constants["trials"] == 10
    with pytest.raises(errors.BadR):
        run_cell("3.9", 2, 0.5, 0.5, trials=5, master_seed=3)
    with pytest.raises(errors.UnknownKind):
        run_cell("9.99", 2, 2.0, 0.5, trials=5, master_seed=3)


def test_run_cell_deterministic():
    a = run_cell("4.8", 3, 2.0, 0.5, trials=8, master_seed=11)
    b = run_cell("4.8", 3, 2.0, 0.5, trials=8, master_seed=11)
    assert a == b
    c = run_cell("4.8", 3, 2.0, 0.5, trials=8, master_seed=12)
    assert c.margin != a.margin


def test_recheck_roundtrip_on_failure():
    # craft a failing campaign-style report from the known compression
    # counterexample and confirm the witness re-verifies as failing
    a = random_spd(2, (1.0, 1.01), 27)
    c = validate_spd(np.sqrt(0.4) * np.eye(2))
    rep = check_compression_reverse(a, c, 2.0, 1.0, 1.01, 0.4)
    assert not rep.holds
    payload = {
        "inequality_id": "L5.1[dim=2,r=2.0]",
        "holds": False,
        "margin": rep.margin,
        "constants": {"r": 2.0, "alpha": None, "m": 1.0, "M": 1.01, "mu": 0.4},
        "witness_seed": 27,
        "matrices": rep.matrices,
    }
    again = recheck(payload)
    assert not again.holds
    assert again.margin == pytest.approx(rep.margin, rel=1e-9)


def test_run_campaign_matches_ungrouped_cells():
    # grouped, cached campaign lines on 1, 2 and 4 workers against
    # independent cells, each generating its own data with no cache; the
    # pool takes the dimension-3 groups first, out of cell order
    for r_range, rs in (("ge1", (1.0, 1.5, 3.0)), ("le1", (0.25, 0.75, 1.0))):
        ids = tuple(f for f in FAMILIES if FAMILIES[f]["r_range"] == r_range)
        config = CampaignConfig(ids, (2, 3), rs, (0.25, 1.0), 8, 17, "-")
        ungrouped = [
            json.dumps(run_cell(f, dim, r, alpha, 8, 17).to_json(), sort_keys=True)
            for f in ids
            for dim in (2, 3)
            for alpha in ((0.25, 1.0) if FAMILIES[f]["needs_alpha"] else (None,))
            for r in rs
        ]
        for threads in (1, 2, 4):
            grouped = run_campaign(config, threads=threads)
            assert [json.dumps(x, sort_keys=True) for x in grouped] == ungrouped, threads


class _InlinePool:
    """Stands in for the process pool: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_run_campaign_caps_workers(monkeypatch):
    # never more workers than groups or cores, and one worker runs no pool;
    # checked on a stand-in, so no process starts
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    config = CampaignConfig(("3.9",), (2, 3, 4), (2.0,), (0.25, 0.5), 2, 0, "-")  # six groups
    expect = run_campaign(config)
    for cores, threads, size in ((4, 10**6, 4), (64, 10**6, 6), (64, 3, 3), (None, 10**6, None), (64, 1, None)):
        monkeypatch.setattr(inequalities.os, "cpu_count", lambda: cores)
        _InlinePool.sizes.clear()
        assert run_campaign(config, threads=threads) == expect
        assert _InlinePool.sizes == ([] if size is None else [size]), (cores, threads)


@pytest.mark.parametrize("threads", [0, -3, True, 2.0])
def test_run_campaign_rejects_bad_thread_count(threads):
    config = CampaignConfig(("3.9",), (2,), (2.0,), (0.5,), 2, 0, "-")
    with pytest.raises(errors.ConfigError, match="threads"):
        run_campaign(config, threads=threads)


@pytest.mark.parametrize(
    "field, value", [("inequality_ids", "logmaj"), ("inequality_ids", {"3.9": 1}), ("dimensions", {2: 1})]
)
def test_campaign_ids_and_dimensions_must_be_lists(field, value):
    # a string is not read letter by letter, nor an object by its keys
    obj = {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], field: value}
    with pytest.raises(errors.ConfigError, match=f"{field} must be a list"):
        CampaignConfig.from_json(obj)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched family reaches the workers only by fork",
)


def _failing_group_campaign(monkeypatch, margins):
    """A two-family grid whose 5.3 groups run ``margins``."""
    monkeypatch.setitem(FAMILIES["5.3"], "margins", margins)
    return CampaignConfig(("3.9", "5.3"), (2, 3), (2.0,), (0.5,), 4, 1, "-")


@needs_fork
def test_worker_warning_surfaces_as_its_exception(monkeypatch):
    # a warnings filter set in the parent holds in the workers
    def warns(data, r, alpha, cache):
        warnings.warn(f"overflow in process {os.getpid()}", RuntimeWarning)
        return np.zeros(1), {}

    config = _failing_group_campaign(monkeypatch, warns)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow in process") as caught:
            run_campaign(config, threads=2)
    raised_in = int(str(caught.value).rsplit(" ", 1)[1])
    assert (raised_in != os.getpid()) == ((os.cpu_count() or 1) > 1)


def test_no_convergence_error_line_names_its_failing_trials(monkeypatch):
    # a 3.10 group's first solve stops after one step: its error line names
    # each failing member by its trial index and that trial's seed, the
    # ones a report of the cell would read
    from opmeans import multimeans

    monkeypatch.setattr(multimeans, "MAX_ITERS", 1)
    (line,) = run_campaign(CampaignConfig(("3.10",), (3,), (2.0,), (0.5,), 6, 5, "-"))
    assert line["error"] == "NoConvergence" and not line["holds"]
    seeds = inequalities._gen_cell_data("3.10", 3, 0.5, 6, 5).seeds
    trials = [entry["trial"] for entry in line["failing_trials"]]
    assert trials and trials == sorted(set(trials)) and set(trials) <= set(range(6))
    assert line["failing_trials"] == [{"trial": i, "seed": seeds[i]} for i in trials]
    assert json.loads(json.dumps(line)) == line


@needs_fork
def test_worker_exception_keeps_its_type(monkeypatch):
    # not a library error, so no error line: it is raised, and the pool shuts down
    def fails(data, r, alpha, cache):
        raise ZeroDivisionError("group failed")

    config = _failing_group_campaign(monkeypatch, fails)
    for threads in (1, 2):
        with pytest.raises(ZeroDivisionError, match="group failed"):
            run_campaign(config, threads=threads)


def test_pair_group_solves_each_mean_once(monkeypatch):
    # a 4.6 group needs mean(1, 1) and mean(1/r, r) for r = 1.5, 2, 3: four
    # distinct pair means, the r = 1 cell's two ends being mean(1, 1) itself
    from opmeans import inequalities

    calls = []
    inner = inequalities._frame_mean
    monkeypatch.setattr(inequalities, "_frame_mean", lambda *a: calls.append(1) or inner(*a))
    config = CampaignConfig(("4.6",), (3,), (1.0, 1.5, 2.0, 3.0), (), 20, 0, "-")
    assert len(run_campaign(config)) == 4
    assert len(calls) == 4


def _eigh_inputs(monkeypatch):
    """Copies of the arrays psd_core decomposes from now on."""
    seen = []
    inner = psd_core._eigh
    monkeypatch.setattr(psd_core, "_eigh", lambda a: seen.append(np.array(a)) or inner(a))
    return seen


def _times_decomposed(seen, target):
    return sum(x.shape == target.shape and np.array_equal(x, target) for x in seen)


@pytest.mark.parametrize(
    "family, rs", [("3.13", (1.0, 1.5, 2.0, 3.0)), ("4.7", (0.25, 0.5, 0.75, 1.0)), ("L5.1", (1.0, 1.5, 2.0, 3.0))]
)
def test_group_decomposes_its_trial_matrices_once(monkeypatch, family, rs):
    # every A^r of the r grid comes from one decomposition per group: the
    # ensemble (3.13), the pair (4.7), and L5.1's A and C A C
    alpha = 0.5 if FAMILIES[family]["needs_alpha"] else None
    data = inequalities._gen_cell_data(family, 3, alpha, 10, 4)
    a, c = data.stack[:, 0], data.stack[:, 1]
    targets = [a, sym(c @ a @ c)] if family == "L5.1" else [data.stack]
    seen = _eigh_inputs(monkeypatch)
    lines = run_campaign(CampaignConfig((family,), (3,), rs, (0.5,), 10, 4, "-"))
    assert len(lines) == len(rs) and all(line["holds"] for line in lines)
    assert [_times_decomposed(seen, t) for t in targets] == [1] * len(targets)


def test_adjoint_group_inverts_without_decomposing(monkeypatch):
    # a 3.10 group solves P_{-alpha} as P_alpha of the inverses, inverted:
    # each A^{-r} is a rebuild from the group's one decomposition of the trial
    # stack and each mean is read from the loop's factor, so psd_core
    # decomposes the stack and nothing else, and the solves' rounding floors
    # take no eigvalsh of their inputs
    rs = (1.0, 1.5, 2.0, 3.0)
    stack = inequalities._gen_cell_data("3.10", 3, 0.5, 10, 4).stack
    seen, eigvalsh_seen = _eigh_inputs(monkeypatch), []
    inner = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh_seen.append(np.shape(a)) or inner(a))
    lines = run_campaign(CampaignConfig(("3.10",), (3,), rs, (0.5,), 10, 4, "-"))
    assert len(lines) == len(rs) and all(line["holds"] for line in lines)
    assert len(seen) == 1 and _times_decomposed(seen, stack) == 1
    assert stack.shape not in eigvalsh_seen


def test_pair_group_takes_each_square_root_pair_once(monkeypatch):
    # a 4.7 group evaluates pair means at A^q for q = 0.25, 0.5, 0.75 and 1;
    # the square-root pair of each A^q comes from the one decomposition of
    # the trial stack, so no A^q is decomposed: eigh sees the stack and one
    # W per q, nothing else
    rs = (0.25, 0.5, 0.75, 1.0)
    stack = inequalities._gen_cell_data("4.7", 3, 0.5, 10, 4).stack
    powers = [spd_power(stack, q)[:, 0] for q in rs]
    seen = _eigh_inputs(monkeypatch)
    run_campaign(CampaignConfig(("4.7",), (3,), rs, (0.5,), 10, 4, "-"))
    assert [_times_decomposed(seen, p) for p in powers] == [0, 0, 0, 0]
    assert _times_decomposed(seen, stack) == 1
    assert len(seen) == 1 + len(rs)


@pytest.mark.parametrize("style", ["direct", "complement"])
def test_bracket_margins_decompose_each_matrix_once(monkeypatch, style):
    # x and mid once each, then each side's difference from mid; a side is a
    # positive multiple of x, so its norm is the multiple of x's
    x = np.stack([random_spd(3, (0.5, 2.0), 90 + k).a for k in range(5)])
    mid = np.stack([random_spd(3, (0.5, 2.0), 95 + k).a for k in range(5)])
    seen = []
    inner = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(np.array(a)) or inner(a))
    inequalities._bracket_margins(mid, x, 2.0, style, k=2.0)
    assert len(seen) == 4
    assert _times_decomposed(seen, x) == _times_decomposed(seen, mid) == 1
    assert not any(np.array_equal(p, q) for i, p in enumerate(seen) for q in seen[:i])


def test_reverse_cell_decomposes_its_mean_once(monkeypatch):
    # a 5.9 cell: x once for kappa_x and its bracket, then mid and each
    # side's difference from mid, the sides' norms being multiples of x's.
    # The two solves read their inputs' rounding floor from the group's
    # decomposition of the trials, so they take no eigvalsh
    data = inequalities._gen_cell_data("5.9", 3, 0.5, 10, 4)
    seen = []
    inner = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(np.array(a)) or inner(a))
    assert run_cell("5.9", 3, 2.0, 0.5, 10, 4, data=data).holds
    assert len(seen) == 4
    assert not any(np.array_equal(p, q) for i, p in enumerate(seen) for q in seen[:i])


def test_pair_group_decomposes_each_w_once(monkeypatch):
    # a 4.7 group solves 7 means on W = A^{-q/2} B^q A^{-q/2} for 4 q; each
    # W is decomposed once, though the four means at q = 1 share it, and
    # A^{-q/2} is raised from the decomposition of the trial stack
    rs = (0.25, 0.5, 0.75, 1.0)
    trials = Spectral(inequalities._gen_cell_data("4.7", 3, 0.5, 10, 4).stack)
    ws = []
    for q in rs:
        _, a_invh = trials[:, 0].raised(q).sqrt_pair()
        ws.append(sym(a_invh @ trials[:, 1].power(q) @ a_invh))
    seen = _eigh_inputs(monkeypatch)
    run_campaign(CampaignConfig(("4.7",), (3,), rs, (0.5,), 10, 4, "-"))
    assert [_times_decomposed(seen, w) for w in ws] == [1, 1, 1, 1]


# The margins of the route before pair frames were raised from the trial
# decomposition and scaled sides took their norm from the matrix they scale:
# every power and every side decomposed afresh, nothing memoized.


def _old_bracket(mid, x, r, style, k=1.0):
    lam, nrm = psd_core.lambda_min(x), psd_core.op_norm(x)
    lo_end, hi_end = (lam, nrm) if style == "direct" else (nrm, lam)
    lo_side = ((1.0 / k) * lo_end ** (r - 1.0))[:, None, None] * x
    hi_side = (k * hi_end ** (r - 1.0))[:, None, None] * x
    lo = psd_core.lambda_min(mid - lo_side) / (psd_core.op_norm(mid) + psd_core.op_norm(lo_side))
    hi = psd_core.lambda_min(hi_side - mid) / (psd_core.op_norm(mid) + psd_core.op_norm(hi_side))
    return np.minimum(lo, hi), lo, hi


def _old_le(lhs, rhs):
    return psd_core.lambda_min(rhs - lhs) / (psd_core.op_norm(lhs) + psd_core.op_norm(rhs))


def _old_pair_margins(data, r, r_range):
    a, b = data.stack[:, 0], data.stack[:, 1]

    def mean(s, q):
        half, inv_half = psd_core.spd_sqrt_pair(spd_power(a, q))
        w = sym(inv_half @ spd_power(b, q) @ inv_half)
        f = rep_transform(data.sigma, "power_inner", s)
        return sym(half @ psd_core.eigh_apply(w, lambda t: deformed_rep(data.tau, f, t)) @ half)

    if r_range == "ge1":
        return _old_bracket(mean(1.0 / r, r), mean(1.0, 1.0), r, "direct")
    return _old_bracket(mean(1.0, r), mean(r, 1.0), r, "complement")


def _old_solve(spec, data, q):
    return eval_mean_stack(spec, spd_power(data.stack, q), data.weights, certify=False).values


def _old_cell_margins(family, data, r, alpha):
    if family in ("4.6", "4.7"):
        return _old_pair_margins(data, r, FAMILIES[family]["r_range"])
    if family == "3.9":
        spec = MultiMeanSpec.power(None, alpha)
        base, powd = _old_solve(spec, data, 1.0), _old_solve(spec, data, r)
        side = (psd_core.lambda_min(base) ** (r - 1.0))[:, None, None] * base
        return (psd_core.lambda_min(powd - side) / (psd_core.op_norm(powd) + psd_core.op_norm(side)),)
    m, M = data.bounds
    if family == "5.3":
        w = data.weights[:, :, None, None]
        lhs = (w * spd_power(data.stack, r)).sum(axis=1)
        return (_old_le(lhs, kantorovich(M / m, r) * spd_power((w * data.stack).sum(axis=1), r)),)
    # 5.9
    x = _old_solve(MultiMeanSpec.power(None, alpha), data, 1.0)
    y = _old_solve(MultiMeanSpec.power(None, alpha / r), data, r)
    k1 = kantorovich(M / m * psd_core.op_norm(x) / psd_core.lambda_min(x), r)
    return _old_bracket(y, x, r, "complement", k1)


@pytest.mark.parametrize(
    "family, rs",
    [("4.6", (1.0, 1.5, 2.0, 3.0)), ("4.7", (0.25, 0.5, 0.75, 1.0)), ("5.9", (2.0,)), ("5.3", (2.0,)), ("3.9", (2.0,))],
    ids=["4.6", "4.7", "5.9", "5.3", "3.9"],
)
def test_cells_agree_with_the_route_that_decomposes_every_matrix(family, rs):
    # a group's cells, with their memo, against margins recomputed with no
    # cache, every A^q's square-root pair and every scaled side's norm from
    # its own decomposition
    alpha = 0.5 if FAMILIES[family]["needs_alpha"] else None
    data = inequalities._gen_cell_data(family, 3, alpha, 20, 11)
    cache = {}
    for r in rs:
        report = run_cell(family, 3, r, alpha, 20, 11, data=data, cache=cache)
        old = _old_cell_margins(family, data, r, alpha)
        worst = int(np.argmin(old[0]))
        assert report.constants["worst_trial"] == worst
        assert report.margin == pytest.approx(old[0][worst], rel=0, abs=1e-13)
        assert report.holds == (old[0][worst] >= -inequalities.CHECK_TOL)
        if len(old) == 3:
            assert report.constants["lower_margin"] == pytest.approx(old[1][worst], rel=0, abs=1e-13)
            assert report.constants["upper_margin"] == pytest.approx(old[2][worst], rel=0, abs=1e-13)


@pytest.mark.parametrize("family", ["3.13", "4.7", "L5.1", "5.9"])
def test_cell_data_draws_through_one_seeding_path(monkeypatch, family):
    # trial matrices, weights and the cell's constants all come from
    # psd_core._generators, never from a generator built per seed
    def per_seed(seed=None):
        raise AssertionError("a per-seed default_rng")

    alpha = 0.5 if FAMILIES[family]["needs_alpha"] else None
    monkeypatch.setattr(np.random, "default_rng", per_seed)
    assert len(inequalities._gen_cell_data(family, 3, alpha, 6, 11).stack) == 6


def test_cell_seeds_are_blake2s_of_joined_parts():
    # the shared prefix is hashed once and copied: the seeds are unchanged
    def plain(*parts):
        key = "|".join(str(p) for p in parts).encode()
        return int.from_bytes(hashlib.blake2s(key, digest_size=8).digest(), "big") % 2**63

    prefix = (20260810, "4.6", 5, 0.5)
    assert inequalities._derive_seeds(prefix, [*range(30), "cell", "fn"]) == [
        plain(*prefix, x) for x in [*range(30), "cell", "fn"]
    ]
    assert inequalities._derive_seed(7, "w") == plain(7, "w")


@pytest.mark.parametrize("family", ["3.13", "4.7", "L5.1", "5.3"])
def test_cell_data_takes_one_generator_call(monkeypatch, family):
    # a stack, pair, compress and bounded-stack group each reseed from one
    # batched call, with the cell's constants and the pair's means folded in
    calls = []

    def counted(seeds):
        calls.append(len(seeds))
        return psd_core._generators(seeds)

    monkeypatch.setattr(inequalities, "_generators", counted)
    info = FAMILIES[family]
    inequalities._gen_cell_data(family, 3, 0.5 if info["needs_alpha"] else None, 6, 11)
    per_trial = {"stack": 4, "pair": 2, "compress": 2}[info["layout"]]  # matrices, then weights or C
    per_cell = (info["spread"] is not None) + (info["layout"] == "pair")  # the bounds, tau and sigma
    assert calls == [6 * per_trial + per_cell]


def test_scan_and_equivalence_raise_powers_from_held_decompositions(monkeypatch):
    # the 6.1 scan decomposes A, the pair frame, B^r and the powered pair's
    # frame once each; the equivalence test does so per dimension.  The 6.3
    # scan decomposes A and the pair frame for its rescaling beta, then B^r
    # and the powered pair's frame, A^r being raised from A's decomposition
    # scaled by 1 / beta: four calls on its whole candidate stack
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    optimality_scan(arithmetic(0.5), 2.0, "prop_6_1")
    assert len(calls) == 4
    calls.clear()
    optimality_scan(harmonic(0.5), 0.5, "prop_6_2")
    assert len(calls) == 4 and len(set(calls)) == 1
    calls.clear()
    check_implication_equivalence(geometric(0.5), geometric(0.5), 2.0)
    assert len(calls) == 8


@pytest.fixture
def every_check_fails(monkeypatch):
    """A threshold of -1 fails every check, so each report embeds its witness."""
    monkeypatch.setattr(inequalities, "CHECK_TOL", -1.0)


def _forced_failure(family, dim=2):
    """A failing report of ``family`` over several trials, under
    ``every_check_fails``, embedding the worst trial's witness in the
    family's layout."""
    r = 2.0 if FAMILIES[family]["r_range"] == "ge1" else 0.5
    alpha = 0.5 if FAMILIES[family]["needs_alpha"] else None
    rep = run_cell(family, dim, r, alpha, 6, 5)
    assert not rep.holds and rep.matrices
    return rep


# the constants of each family's failing report beyond the r, alpha, dim,
# trials and worst_trial of every report
_REPORT_KEYS = {
    "3.9": "alpha_used weights",
    "3.10": "alpha_used weights",
    "3.11": "alpha_used weights",
    "3.12": "alpha_used weights",
    "3.13": "lower_margin upper_margin weights",
    "3.14": "lower_margin upper_margin weights",
    "4.4": "lower_margin upper_margin weights",
    "4.5": "lower_margin upper_margin weights",
    "4.6": "lower_margin sigma_json tau_json upper_margin",
    "4.7": "lower_margin sigma_json tau_json upper_margin",
    "4.8": "lower_margin sigma_json tau_json upper_margin",
    "4.9": "lower_margin sigma_json tau_json upper_margin",
    "5.3": "K M m weights",
    "L5.1": "K M h1 m mu",
    "5.4": "K1 K2_pow M alpha_used kappa0 kappa_x m prefactor weights",
    "5.5": "K1 K2_pow M alpha_used kappa0 kappa_x m prefactor weights",
    "5.8": "K1 M alpha_used kappa0 kappa_x lower_margin m upper_margin weights",
    "5.9": "K1 M alpha_used kappa0 kappa_x lower_margin m upper_margin weights",
    "5.10": "K1 M alpha_used kappa0 kappa_x lower_margin m upper_margin weights",
    "logmaj": "equality_error weights worst_partial",
}


def test_every_family_reports_its_constant_keys(every_check_fails):
    # a small campaign per r-range, every cell failing so that stack
    # families report their witness weights
    assert set(_REPORT_KEYS) == set(FAMILIES)
    lines = []
    for r_range, r in (("ge1", 2.0), ("le1", 0.5)):
        ids = tuple(f for f in sorted(FAMILIES) if FAMILIES[f]["r_range"] == r_range)
        lines += run_campaign(CampaignConfig(ids, (2,), (r,), (0.5,), 4, 5, "-"))
    keys = {line["inequality_id"].split("[")[0]: set(line["constants"]) for line in lines}
    every = {"r", "alpha", "dim", "trials", "worst_trial"}
    assert keys == {f: every | set(extra.split()) for f, extra in _REPORT_KEYS.items()}


@pytest.mark.parametrize("family, dim", [
    pytest.param(family, dim, id=family if dim == 2 else f"{family}-d{dim}")
    for dim in (2, 5) for family in sorted(FAMILIES)
])
def test_recheck_reproduces_every_family_witness(family, dim, every_check_fails):
    # recheck rebuilds the worst trial, so it reproduces the margin and every
    # constant the report read at that trial; no solve, matrix or scalar,
    # depends on its batch, so the margin is reproduced bit for bit, the
    # adjoint families' inverses being rebuilt from the trial's decomposition
    rep = _forced_failure(family, dim)
    again = recheck(json.loads(json.dumps(rep.to_json())))
    assert again.margin == rep.margin
    assert again.constants["trials"] == 1 and again.constants["worst_trial"] == 0
    for key, value in rep.constants.items():
        if isinstance(value, float):
            assert again.constants[key] == pytest.approx(value, rel=1e-8, abs=1e-12), key
        elif key not in ("trials", "worst_trial"):
            assert again.constants[key] == value, key


@pytest.mark.parametrize("family", ["4.6", "L5.1"])
def test_recheck_rejects_weights_outside_an_ensemble(family, every_check_fails):
    # a pair or a compression trial has no weights, so a report carrying
    # them does not come from the family's campaign
    report = _forced_failure(family).to_json()
    report["constants"]["weights"] = [0.2, 0.3, 0.5]
    with pytest.raises(errors.ArityMismatch, match="takes no weights"):
        recheck(report)


_TYPED_LABEL = {family: label for label, family in inequalities._LABELS.items()}


def _typed_margin(family, report):
    """The typed form of ``family`` on a cell report's witness, weights and bounds."""
    c = report.constants
    mats = [matrix_from_json(m) for m in report.matrices]
    r, alpha, label = c["r"], c["alpha"], _TYPED_LABEL.get(family)
    w = Weights(c["weights"]) if "weights" in c else None
    bounds = (c.get("m"), c.get("M"))
    if family in ("3.9", "3.10", "3.11", "3.12"):
        return check_ah_family(MultiMeanSpec.power(w, alpha), mats, r, label).margin
    if family in ("3.13", "3.14"):
        variants = ("3.1", "3.2") if family == "3.13" else ("3.3", "3.4")
        return min(check_ah_family(MultiMeanSpec.karcher(w), mats, r, v).margin for v in variants)
    if family in ("4.4", "4.5"):
        return check_modified(MultiMeanSpec.arithmetic(w), geometric(alpha), mats, r, label).margin
    if FAMILIES[family]["layout"] == "pair":
        tau, sigma = repfn_from_json(c["tau_json"]), repfn_from_json(c["sigma_json"])
        return check_two_var(tau, sigma, *mats, r, family).margin
    if family == "5.3":
        return check_arithmetic_power_reverse(w, mats, r, bounds).margin
    if family == "L5.1":
        return check_compression_reverse(mats[0], mats[-1], r, *bounds, c["mu"]).margin
    if family == "logmaj":
        return check_log_majorization(w, mats, r).margin
    return check_reverse(w, c["alpha_used"], mats, r, family, bounds).margin


# Typed forms that solve a different mean, equal to the cell's only in exact
# arithmetic: 3.13/3.14 as the smaller of 3.1/3.2 (3.3/3.4) over the Karcher
# mean and its adjoint, and 4.4/4.5 with P_alpha as the arithmetic mean
# deformed by the weighted geometric mean.  Every other typed form hands the
# cell's own mean to its margin function, so it returns the cell's bits.
_EQUAL_IN_EXACT_ARITHMETIC = ("3.13", "3.14", "4.4", "4.5")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_typed_check_returns_cell_margin_on_witness(family, every_check_fails):
    rep = _forced_failure(family)
    if family in _EQUAL_IN_EXACT_ARITHMETIC:
        assert _typed_margin(family, rep) == pytest.approx(rep.margin, rel=1e-8, abs=1e-12)
    else:
        assert _typed_margin(family, rep) == rep.margin


@pytest.mark.parametrize("family", ["3.9", "3.10", "3.11", "3.12", "4.4", "4.5", "5.4", "5.5", "5.8", "5.9"])
def test_out_of_domain_alpha_is_one_error_at_every_entry_point(family, every_check_fails):
    # the reverse forms check alpha_used against their FAMILIES domain; the
    # others take a power mean, whose own domain is checked where it is built
    report = _forced_failure(family).to_json()
    c, alpha = report["constants"], 2.0
    c["alpha"] = alpha
    mats, w, r = [matrix_from_json(m) for m in report["matrices"]], Weights(c["weights"]), c["r"]
    label = _TYPED_LABEL.get(family)

    def typed():
        if family.startswith("3."):
            return check_ah_family(MultiMeanSpec.power(w, alpha), mats, r, label)
        if family.startswith("4."):
            # check_modified takes its mean whole: here the deformation of P_alpha
            return check_modified(MultiMeanSpec.power(w, alpha), geometric(0.5), mats, r, label)
        return check_reverse(w, FAMILIES[family]["alpha_used"](alpha), mats, r, family, (c["m"], c["M"]))

    seen = []
    for call in (lambda: run_cell(family, 2, r, alpha, 6, 5), lambda: recheck(report), typed):
        with pytest.raises(errors.OpmeansError) as info:
            call()
        seen.append((type(info.value), str(info.value)))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0] is (errors.AlphaZero if family[0] in "34" else errors.BadR)


def test_typed_report_carries_cell_constants(every_check_fails):
    As = ensemble(2, 3, 60, (1.0, 3.0))
    rep = check_reverse(W3, 0.5, As, 2.0, "5.4", (1.0, 3.0))
    assert not rep.holds and rep.witness_seed == -1 and len(rep.matrices) == 3
    c = rep.constants
    assert (c["r"], c["alpha"], c["dim"], c["trials"], c["worst_trial"]) == (2.0, 0.5, 2, 1, 0)
    assert (c["m"], c["M"], c["weights"]) == (1.0, 3.0, [0.2, 0.3, 0.5])
    assert {"kappa0", "kappa_x", "K1", "K2_pow", "prefactor"} <= set(c)


def test_public_checks_take_no_threshold_or_seed(monkeypatch):
    checks = (
        check_ah_family, check_modified, check_two_var, check_reverse, check_compression_reverse,
        check_arithmetic_power_reverse, check_log_majorization, check_implication_equivalence,
        run_cell, recheck,
    )
    for fn in checks:
        assert not {"tol", "witness_seed"} & set(inspect.signature(fn).parameters), fn.__name__
    assert list(inspect.signature(find_reverse_improvement).parameters) == []
    assert list(inspect.signature(validate_spd).parameters) == ["entries"]
    # the one threshold is read at call time: patching it flips the verdict
    # of a typed check and of recheck on the same witness
    monkeypatch.setattr(inequalities, "CHECK_TOL", -1.0)
    report = run_cell("5.4", 2, 2.0, 0.5, 6, 5)
    c, mats = report.constants, [matrix_from_json(m) for m in report.matrices]

    def verdicts():
        typed = check_reverse(Weights(c["weights"]), 0.5, mats, 2.0, "5.4", (c["m"], c["M"]))
        return typed.holds, recheck(report.to_json()).holds

    assert verdicts() == (False, False)
    monkeypatch.undo()
    assert verdicts() == (True, True)


def test_family_table_is_complete():
    assert set(FAMILIES) == {
        "3.9", "3.10", "3.11", "3.12", "3.13", "3.14",
        "4.4", "4.5", "4.6", "4.7", "4.8", "4.9",
        "5.3", "L5.1", "5.4", "5.5", "5.8", "5.9", "5.10", "logmaj",
    }
