import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeans import errors, meanfns
from opmeans.meanfns import (
    arithmetic,
    arithmetic_harmonic_mix,
    condition_vi_margin,
    convex_combo,
    deformed_rep,
    geometric,
    harmonic,
    left_trivial,
    pmi_margin,
    rep_elasticity,
    rep_eval,
    rep_transform,
    repfn_from_json,
    repfn_to_json,
    right_trivial,
    two_var_mean,
    two_var_deformed_mean,
)
from opmeans.psd_core import matrix_function, random_spd, validate_spd

GRID = np.geomspace(1e-3, 1e3, 60)


def catalog():
    return [
        left_trivial(),
        right_trivial(),
        arithmetic(0.3),
        harmonic(0.6),
        geometric(0.5),
        arithmetic_harmonic_mix(0.25),
        rep_transform(arithmetic(0.4), "adjoint"),
        rep_transform(geometric(0.7), "transpose"),
        rep_transform(harmonic(0.5), "power_inner", 2.0),
        rep_transform(arithmetic(0.5), "power_inner_outer", 0.5),
        rep_transform(harmonic(0.5), "power_outer", 0.5),
    ]


def test_normalization_survives_transforms():
    for spec in catalog():
        assert rep_eval(spec, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_monotone_on_grid():
    for spec in catalog():
        vals = rep_eval(spec, GRID)
        assert np.all(np.diff(vals) >= -1e-12 * np.abs(vals[:-1]))


def test_between_trivial_means():
    # holds for every operator mean; power_inner with r > 1 is an analytic
    # device rather than a mean, so it is exempt
    means_only = [
        spec
        for spec in catalog()
        if not any(t.op == "power_inner" and t.r > 1 for t in spec.transforms)
    ]
    assert len(means_only) == len(catalog()) - 1
    for spec in means_only:
        vals = rep_eval(spec, GRID)
        assert np.all(vals >= np.minimum(1.0, GRID) - 1e-12)
        assert np.all(vals <= np.maximum(1.0, GRID) + 1e-9 * np.maximum(1.0, GRID))


def test_exact_values():
    assert rep_eval(geometric(0.5), 4.0) == pytest.approx(2.0, abs=1e-14)
    f = arithmetic_harmonic_mix(0.25)
    # by hand: (1/4)(9/2) + (3/4)(16/9) = 9/8 + 4/3 = 59/24
    assert rep_eval(f, 8.0) == pytest.approx(59.0 / 24.0, rel=1e-14)
    # (1/4)(3/2) + (3/4)(4/3) = 11/8, cubed = 1331/512
    assert rep_eval(f, 2.0) ** 3 == pytest.approx(1331.0 / 512.0, rel=1e-14)


def test_adjoint_of_arithmetic_is_harmonic():
    adj = rep_transform(arithmetic(0.5), "adjoint")
    assert rep_eval(adj, 3.0) == pytest.approx(1.5, abs=1e-14)
    for w in (0.2, 0.5, 0.8):
        got = rep_eval(rep_transform(arithmetic(w), "adjoint"), GRID)
        np.testing.assert_allclose(got, rep_eval(harmonic(w), GRID), rtol=1e-13)


def test_transpose_of_geometric():
    for alpha in (0.2, 0.5, 0.9):
        got = rep_eval(rep_transform(geometric(alpha), "transpose"), GRID)
        np.testing.assert_allclose(got, GRID ** (1 - alpha), rtol=1e-12)


def test_power_bracket_fixes_geometric():
    for r in (0.25, 0.5, 2.0):
        got = rep_eval(rep_transform(geometric(0.3), "power_inner_outer", r), GRID)
        np.testing.assert_allclose(got, GRID**0.3, rtol=1e-12)


def test_adjoint_is_involution():
    for spec in catalog():
        twice = rep_transform(rep_transform(spec, "adjoint"), "adjoint")
        np.testing.assert_allclose(rep_eval(twice, GRID), rep_eval(spec, GRID), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    w=st.floats(min_value=0.05, max_value=0.95),
    t=st.floats(min_value=1e-3, max_value=1e3),
)
def test_arithmetic_value_and_derivative(w, t):
    spec = arithmetic(w)
    assert rep_eval(spec, t) == pytest.approx(1 - w + w * t, rel=1e-13)
    assert spec.derivative_at_one == pytest.approx(w, abs=1e-7)


@pytest.mark.parametrize("interval", [(1e-2, 1e2), (0.5, 2.0), (1.0, 1.0)])
def test_rep_elasticity_brackets_finite_differences(interval):
    # the bounds must contain t f'(t) / f(t) on the interval, read off the
    # log-log slope; a single point must give the derivative at that point
    lo, hi = interval
    t = np.geomspace(lo, hi, 2001)
    specs = catalog() + [
        convex_combo([(0.5, left_trivial()), (0.5, rep_transform(arithmetic(0.5), "adjoint"))]),
        rep_transform(rep_transform(harmonic(0.5), "power_inner", 1 / 3), "transpose"),
        rep_transform(geometric(0.5), "power_outer", 0.6),
    ]
    for spec in specs:
        h = 1e-6
        slope = (np.log(rep_eval(spec, t * np.exp(h))) - np.log(rep_eval(spec, t * np.exp(-h)))) / (2 * h)
        e_lo, e_hi = rep_elasticity(spec, lo, hi)
        assert e_lo <= slope.min() + 1e-8 and slope.max() - 1e-8 <= e_hi, spec
        if lo == hi:
            assert e_hi - e_lo < 1e-12 and spec.derivative_at_one == pytest.approx(slope[0], abs=1e-8)


def test_transform_validation():
    with pytest.raises(errors.MissingParameter):
        rep_transform(arithmetic(0.5), "power_inner")
    with pytest.raises(errors.UnknownKind):
        rep_transform(arithmetic(0.5), "squash")
    with pytest.raises(errors.DomainError):
        rep_transform(arithmetic(0.5), "power_outer", 2.0)
    with pytest.raises(errors.DomainError):
        rep_eval(arithmetic(0.5), -1.0)


def test_power_map_at_one_is_the_spec_itself():
    # a power map at r = 1 is the identity: validated, then the same spec
    # (so the same key and the same bits), with no identity transform
    for spec in catalog():
        for op in ("power_inner", "power_inner_outer", "power_outer"):
            assert rep_transform(spec, op, 1.0) is spec
            assert rep_transform(spec, op, 1) is spec
    base = harmonic(0.5)
    assert rep_transform(base, "adjoint", 1.0).transforms == (meanfns.Transform("adjoint", 1.0),)
    assert repfn_to_json(rep_transform(base, "power_inner", 1.0))["transforms"] == []
    with pytest.raises(errors.UnknownKind):
        rep_transform(base, "squash", 1.0)


def test_convex_combo_weights_checked():
    with pytest.raises(errors.DomainError):
        convex_combo([(0.5, arithmetic(0.5)), (0.6, harmonic(0.5))])


# ------------------------------------------------------------------ matrices


def test_two_var_identity_left():
    b = random_spd(3, (0.5, 2.0), 9)
    spec = geometric(0.5)
    got = two_var_mean(spec, validate_spd(np.eye(3)), b)
    np.testing.assert_allclose(got.a, matrix_function(b, np.sqrt), atol=1e-12)


def test_two_var_commuting_diagonals():
    a = validate_spd(np.diag([1.0, 4.0]))
    b = validate_spd(np.diag([3.0, 2.0]))
    got = two_var_mean(arithmetic(0.5), a, b)
    np.testing.assert_allclose(got.a, np.diag([2.0, 3.0]), atol=1e-12)


def test_two_var_geometric_with_identity():
    a = validate_spd([[2.0, 1.0], [1.0, 2.0]])
    got = two_var_mean(geometric(0.5), a, validate_spd(np.eye(2)))
    np.testing.assert_allclose(got.a, matrix_function(a, np.sqrt), atol=1e-11)


def test_two_var_monotone_and_congruent():
    rng = np.random.default_rng(3)
    spec = harmonic(0.4)
    for trial in range(6):
        a = random_spd(3, (0.5, 2.0), 500 + trial)
        b = random_spd(3, (0.5, 2.0), 600 + trial)
        bump = rng.standard_normal((3, 2))
        c = validate_spd(a.a + bump @ bump.T)
        low = two_var_mean(spec, a, b).a
        high = two_var_mean(spec, c, b).a
        assert np.linalg.eigvalsh(high - low).min() >= -1e-10
        bump2 = rng.standard_normal((3, 2))
        d = validate_spd(b.a + bump2 @ bump2.T)
        high2 = two_var_mean(spec, a, d).a
        assert np.linalg.eigvalsh(high2 - low).min() >= -1e-10
        s = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        lhs = s.T @ two_var_mean(spec, a, b).a @ s
        rhs = two_var_mean(spec, validate_spd(s.T @ a.a @ s), validate_spd(s.T @ b.a @ s)).a
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-8


# ------------------------------------------------------- scalar deformed mean


def power_formula(w, a, t):
    return (1 - w + w * t**a) ** (1 / a)


def harmonic_deform_formula(w, a, t):
    c = (1 - a - w) * t + w - a
    return (np.sqrt(c**2 + 4 * a * (1 - a) * t) - c) / (2 * a)


def geometric_by_arithmetic_formula(a, t):
    return ((1 - a) * (1 + t) + np.sqrt((1 - a) ** 2 * (1 + t) ** 2 + 4 * a * (2 - a) * t)) / (
        2 * (2 - a)
    )


def fixed_point_residual(tau, sigma, t, x):
    u = rep_eval(sigma, 1.0 / x)
    return u * rep_eval(tau, rep_eval(sigma, t / x) / u) - 1.0


GRID50 = np.geomspace(1e-2, 1e2, 50)


@pytest.mark.parametrize("w", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
def test_deformed_rep_matches_power_formula(w, a):
    expect = power_formula(w, a, GRID50)
    # the closed form itself satisfies the defining equation
    assert np.abs(fixed_point_residual(arithmetic(w), geometric(a), GRID50, expect)).max() < 1e-12
    got = deformed_rep(arithmetic(w), geometric(a), GRID50)
    np.testing.assert_allclose(got, expect, rtol=1e-10)


@pytest.mark.parametrize("w", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
def test_deformed_rep_matches_harmonic_surd(w, a):
    expect = harmonic_deform_formula(w, a, GRID50)
    assert np.abs(fixed_point_residual(arithmetic(w), harmonic(a), GRID50, expect)).max() < 1e-12
    got = deformed_rep(arithmetic(w), harmonic(a), GRID50)
    np.testing.assert_allclose(got, expect, rtol=1e-10)


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
def test_deformed_rep_geometric_by_arithmetic(a):
    expect = geometric_by_arithmetic_formula(a, GRID50)
    assert np.abs(fixed_point_residual(geometric(0.5), arithmetic(a), GRID50, expect)).max() < 1e-12
    got = deformed_rep(geometric(0.5), arithmetic(a), GRID50)
    np.testing.assert_allclose(got, expect, rtol=1e-10)


def test_deformed_rep_special_cases():
    # arithmetic deformed by harmonic at w = alpha = 1/2 is the square root
    assert deformed_rep(arithmetic(0.5), harmonic(0.5), 4.0) == pytest.approx(2.0, abs=1e-10)
    # deforming by the right trivial mean changes nothing
    ts = np.geomspace(0.1, 10, 7)
    np.testing.assert_allclose(
        deformed_rep(arithmetic(0.3), right_trivial(), ts), rep_eval(arithmetic(0.3), ts), rtol=1e-12
    )
    with pytest.raises(errors.SigmaIsLeftTrivial):
        deformed_rep(arithmetic(0.3), left_trivial(), 2.0)


@pytest.mark.parametrize("t", [np.inf, np.nan, 0.0, -1.0])
def test_deformed_rep_domain(t):
    with pytest.raises(errors.DomainError):
        deformed_rep(arithmetic(0.3), harmonic(0.5), np.array([2.0, t]))


def test_deformed_rep_derivative_matches_base():
    # the deformation preserves the derivative at 1
    tau, sigma = arithmetic(0.35), harmonic(0.6)
    h = 1e-6
    d = (deformed_rep(tau, sigma, 1 + h) - deformed_rep(tau, sigma, 1 - h)) / (2 * h)
    assert d == pytest.approx(0.35, abs=1e-6)


def test_two_var_deformed_mean_matches_scalar_on_diagonals():
    a = validate_spd(np.diag([1.0, 2.0]))
    b = validate_spd(np.diag([4.0, 1.0]))
    got = two_var_deformed_mean(arithmetic(0.5), harmonic(0.5), a, b)
    expect = np.diag([np.sqrt(4.0), np.sqrt(2.0)])
    np.testing.assert_allclose(got.a, expect, atol=1e-10)


def test_deformed_rep_no_convergence_payload(monkeypatch):
    # a small sigma exponent makes the residual flat; the bisection still lands on the closed form
    val = deformed_rep(arithmetic(0.5), geometric(0.01), 7.0)
    assert val == pytest.approx(power_formula(0.5, 0.01, 7.0), rel=1e-13)
    # a residual with the wrong sign at the bracket ends raises with the bracket midpoint
    monkeypatch.setattr(meanfns, "_deformed_residual", lambda tau, sigma, t, x: -np.ones_like(x))
    with pytest.raises(errors.NoConvergence) as info:
        deformed_rep(arithmetic(0.5), geometric(0.01), np.array([0.25, 7.0]))
    np.testing.assert_array_equal(info.value.last_iterate, [0.625, 4.0])


@pytest.mark.parametrize("w", [0.3, 0.7])
@pytest.mark.parametrize("a", [0.5, 0.25, 0.05, 0.01])
def test_deformed_rep_closed_form_to_rounding(w, a):
    # the bracket width bounds the error, so a flat residual (small a) costs no accuracy
    t = np.exp(np.random.default_rng(3).uniform(-5.0, 5.0, 400))
    got = deformed_rep(arithmetic(w), geometric(a), t)
    np.testing.assert_allclose(got, power_formula(w, a, t), rtol=2e-13, atol=0)


@pytest.mark.parametrize(
    "tau, sigma",
    [
        (arithmetic(0.3), geometric(0.01)),
        (arithmetic(0.6), harmonic(0.4)),
        (geometric(0.5), arithmetic_harmonic_mix()),
    ],
    ids=["arithmetic-geometric", "arithmetic-harmonic", "geometric-mix"],
)
def test_deformed_rep_batch_independent(tau, sigma):
    t = np.exp(np.random.default_rng(4).uniform(-8.0, 8.0, 40))
    batch = deformed_rep(tau, sigma, t)
    alone = np.array([deformed_rep(tau, sigma, x) for x in t])
    np.testing.assert_array_equal(batch, alone)


def test_deformed_rep_batch_keeps_each_bisection_bits():
    # elements stop after different numbers of halvings (t = 1 never starts,
    # t next to 1 stops early, far t runs longest); each keeps the bits of
    # its own bisection
    t = np.exp(np.random.default_rng(5).uniform(-12.0, 12.0, 44))
    t = np.concatenate([t, [1.0, 1.0 + 2e-16, 1.0 - 1e-16, 1.0 + 1e-12, 1e-9, 1e9]])
    tau, sigma = arithmetic(0.4), harmonic(0.3)
    batch = deformed_rep(tau, sigma, t)
    assert len(t) == 50 and batch[44] == 1.0
    for k, x in enumerate(t):
        assert batch[k] == deformed_rep(tau, sigma, x), k


# the 4.6/4.7 pair cells deform tau (arithmetic, harmonic or geometric) by
# sigma (geometric or harmonic) raised inside by s = 1/r on the r >= 1 grid
# and s = r on the r <= 1 grid
PAIR_TAUS = [arithmetic(0.3), harmonic(0.6), geometric(0.45)]
PAIR_SIGMAS = [geometric(0.25), harmonic(0.5)]
PAIR_EXPONENTS = [1.0, 1 / 1.5, 1 / 2, 1 / 3, 0.25, 0.75]
ROOT_TOL = 64 * np.finfo(float).eps  # the rounding of the residual, not the 4-eps bracket, sets this


def _mp_rep(spec, mp):
    """``spec``'s representing function in mpmath, for the kinds the pair cells use."""
    (p,) = (mp.mpf(q) for q in spec.params)
    fn = {
        "arithmetic": lambda t: 1 - p + p * t,
        "harmonic": lambda t: 1 / (1 - p + p / t),
        "geometric": lambda t: t**p,
    }[spec.kind]
    for tr in spec.transforms:
        assert tr.op == "power_inner"
        fn = (lambda f, r: lambda t: f(t**r))(fn, mp.mpf(tr.r))
    return fn


@pytest.mark.parametrize("tau", PAIR_TAUS, ids=lambda f: f.kind)
@pytest.mark.parametrize("sigma", PAIR_SIGMAS, ids=lambda f: f.kind)
def test_deformed_rep_against_50_digit_root(tau, sigma):
    # every value within ROOT_TOL (relative) of the root of the residual
    # solved in 50 digits, at t in [1e-3, 1e3] and at 1e-9 and 1e9
    mp = pytest.importorskip("mpmath").mp
    t = np.concatenate([np.geomspace(1e-3, 1e3, 9), [1e-9, 1e9]])
    with mp.workdps(50):
        for s in PAIR_EXPONENTS:
            sig = rep_transform(sigma, "power_inner", s)
            f_tau, f_sig = _mp_rep(tau, mp), _mp_rep(sig, mp)
            got = deformed_rep(tau, sig, t)
            for tk, x in zip(t, got):
                tk = mp.mpf(tk)
                root = mp.findroot(
                    lambda y: f_sig(1 / y) * f_tau(f_sig(tk / y) / f_sig(1 / y)) - 1,
                    (min(tk, 1), max(tk, 1)),
                    solver="anderson",
                )
                assert abs(x - root) <= ROOT_TOL * root, (s, float(tk), x, float(root))


def _residual_counts(monkeypatch, tau, sigma, t, residual=meanfns._deformed_residual):
    """How often ``deformed_rep`` evaluates ``residual`` at each of the distinct ``t``."""
    counts = np.zeros(t.size, dtype=int)

    def counted(tau_fn, sigma_fn, tk, x):
        np.add.at(counts, np.searchsorted(t, tk), 1)
        return residual(tau_fn, sigma_fn, tk, x)

    monkeypatch.setattr(meanfns, "_deformed_residual", counted)
    deformed_rep(tau, sigma, t)
    monkeypatch.undo()
    return counts


def _bisection_halvings(tau, sigma, t, residual=meanfns._deformed_residual):
    """The halvings bisection takes on each bracket before it is 4 eps wide relative to its right end."""
    lo, hi = np.minimum(1.0, t), np.maximum(1.0, t)
    halvings = np.zeros(t.size, dtype=int)
    live = hi - lo > meanfns._ROOT_RTOL * hi
    while live.any():
        mid = 0.5 * (lo + hi)
        up = residual(tau.evaluator, sigma.evaluator, t, mid) >= 0
        np.copyto(lo, mid, where=live & up)
        np.copyto(hi, mid, where=live & ~up)
        halvings += live
        live &= hi - lo > meanfns._ROOT_RTOL * hi
    return halvings


FAR_T = np.unique(np.concatenate([np.geomspace(1e-9, 1e-3, 7), np.geomspace(1e3, 1e9, 7), [1 - 1e-12, 1 + 1e-12]]))


@pytest.mark.parametrize("tau", [arithmetic(0.5), harmonic(0.4), geometric(0.7)], ids=lambda f: f.kind)
def test_deformed_rep_evaluations_within_bisection_plus_n0(monkeypatch, tau):
    # a flat residual (sigma = t^0.01) at far t: no element takes more steps
    # than bisection's halvings plus ITP's n0, beyond the two bracket ends,
    # and most take far fewer
    sigma = geometric(0.01)
    steps = _residual_counts(monkeypatch, tau, sigma, FAR_T) - 2
    halvings = _bisection_halvings(tau, sigma, FAR_T)
    assert np.all(steps <= halvings + meanfns._ITP_N0), np.stack([FAR_T, steps, halvings])
    assert np.median(steps) <= np.median(halvings) / 3


def test_deformed_rep_projection_bounds_a_residual_false_position_cannot_use(monkeypatch):
    # a residual that is a step, 1e-300 left of t^0.3 and -1 right of it,
    # puts every false-position point at the left end: the projection alone
    # keeps each element within bisection's halvings plus n0
    def step(tau_fn, sigma_fn, t, x):
        return np.where(x <= t**0.3, 1e-300, -1.0)

    tau, sigma = arithmetic(0.5), geometric(0.5)
    steps = _residual_counts(monkeypatch, tau, sigma, FAR_T, step) - 2
    halvings = _bisection_halvings(tau, sigma, FAR_T, step)
    assert np.all(steps <= halvings + meanfns._ITP_N0), np.stack([FAR_T, steps, halvings])


# --------------------------------------------------------------- margin scans


def test_pmi_margins():
    geo = pmi_margin(geometric(0.4), GRID50, np.linspace(1, 6, 11))
    assert abs(geo.worst_margin) < 1e-10
    ari = pmi_margin(arithmetic(0.6), GRID50, np.linspace(1, 6, 11))
    assert ari.worst_margin >= -1e-12
    mix = pmi_margin(arithmetic_harmonic_mix(0.25), np.array([2.0]), np.array([3.0]))
    assert mix.worst_margin <= 59.0 / 24.0 - 1331.0 / 512.0 + 1e-12
    assert mix.worst_margin < 0


def test_condition_vi_margins():
    mix = condition_vi_margin(arithmetic_harmonic_mix(0.25))
    assert mix.worst_margin >= -1e-12
    geo = condition_vi_margin(geometric(0.5), GRID50, np.linspace(1, 8, 15))
    assert geo.worst_margin >= -1e-12
    at_one = condition_vi_margin(arithmetic_harmonic_mix(0.25), GRID50, np.array([1.0]))
    assert abs(at_one.worst_margin) < 1e-12


def test_margin_grid_validation():
    with pytest.raises(errors.DomainError):
        pmi_margin(geometric(0.5), np.array([-1.0]), np.array([2.0]))
    with pytest.raises(errors.DomainError):
        condition_vi_margin(geometric(0.5), GRID50, np.array([0.5]))


# ----------------------------------------------------------------- wire format


def test_json_roundtrip():
    for spec in catalog():
        back = repfn_from_json(repfn_to_json(spec))
        np.testing.assert_allclose(rep_eval(back, GRID), rep_eval(spec, GRID), rtol=1e-14)


def _reference(spec, t):
    """The representing function read off its definition, transform by transform."""
    def base(x):
        kind, p = spec.kind, spec.params
        if kind == "convex":
            out = np.zeros_like(x)
            for w, sub in p:
                out += w * _reference(sub, x)
            return out
        return {
            "left_trivial": lambda: np.ones_like(x),
            "right_trivial": lambda: x,
            "arithmetic": lambda: 1.0 - p[0] + p[0] * x,
            "harmonic": lambda: 1.0 / (1.0 - p[0] + p[0] / x),
            "geometric": lambda: x ** p[0],
        }[kind]()

    def apply(transforms, x):
        if not transforms:
            return base(x)
        head, tr = transforms[:-1], transforms[-1]
        return {
            "adjoint": lambda: 1.0 / apply(head, 1.0 / x),
            "transpose": lambda: x * apply(head, 1.0 / x),
            "power_inner": lambda: apply(head, x**tr.r),
            "power_inner_outer": lambda: apply(head, x**tr.r) ** (1.0 / tr.r),
            "power_outer": lambda: apply(head, x) ** tr.r,
        }[tr.op]()

    return apply(spec.transforms, t)


def test_compiled_evaluator_matches_definition_bit_for_bit():
    nested = convex_combo([(0.4, rep_transform(harmonic(0.3), "transpose")), (0.6, arithmetic_harmonic_mix())])
    stacked = rep_transform(rep_transform(rep_transform(nested, "power_inner", 3.0), "adjoint"), "power_outer", 0.5)
    for spec in catalog() + [nested, stacked]:
        np.testing.assert_array_equal(rep_eval(spec, GRID), _reference(spec, GRID))


def test_spec_pickles_after_evaluation():
    spec = rep_transform(arithmetic_harmonic_mix(), "adjoint")
    before = rep_eval(spec, GRID)
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec
    np.testing.assert_array_equal(rep_eval(back, GRID), before)


def test_json_unknown_kind():
    with pytest.raises(errors.UnknownKind):
        repfn_from_json({"kind": "median", "params": {}})
    with pytest.raises(errors.MissingParameter):
        repfn_from_json({"kind": "geometric", "params": {}})
