import numpy as np
import pytest

from opmeans import errors
from opmeans.config import SolverConfig
from opmeans.inequalities import _gen_cell_data
from opmeans.meanfns import (
    arithmetic,
    geometric,
    harmonic,
    left_trivial,
    rep_eval,
    rep_transform,
    right_trivial,
)
from opmeans.multimeans import (
    MeanResult,
    MultiMeanSpec,
    Weights,
    _certify_karcher,
    _power_node,
    adjoint_eval,
    comparison_bound,
    deformed_mean,
    elementary_mean,
    eval_mean,
    eval_mean_stack,
    karcher_mean,
    meanspec_from_json,
    meanspec_to_json,
    power_mean,
)
from opmeans.psd_core import (
    Relation,
    eigh_apply,
    random_spd,
    spd_power,
    spd_sqrt_pair,
    sym,
    thompson,
    thompson_distance,
    validate_spd,
)

W3 = Weights((0.2, 0.3, 0.5))
UNI3 = Weights.uniform(3)


def ensemble(dim, n, base_seed, spectrum=(0.5, 2.0)):
    return [random_spd(dim, spectrum, base_seed + j) for j in range(n)]


def test_weights_validation():
    with pytest.raises(errors.InvalidWeights):
        Weights((0.5, 0.6))
    with pytest.raises(errors.InvalidWeights):
        Weights((-0.1, 1.1))
    for bad in ((float("nan"), 1.0), (10**400, 0.0), ("half", 0.5), 3):
        with pytest.raises(errors.InvalidWeights):
            Weights(bad)
    assert Weights.uniform(4).values == (0.25,) * 4


def test_elementary_means():
    eyes = [validate_spd(np.eye(2)) for _ in range(3)]
    np.testing.assert_allclose(elementary_mean("arithmetic", UNI3, eyes).a, np.eye(2), atol=1e-14)
    a = validate_spd(np.diag([1.0, 2.0]))
    b = validate_spd(np.diag([3.0, 4.0]))
    got = elementary_mean("arithmetic", Weights((0.5, 0.5)), [a, b])
    np.testing.assert_allclose(got.a, np.diag([2.0, 3.0]), atol=1e-14)
    with pytest.raises(errors.ArityMismatch):
        elementary_mean("arithmetic", W3, [a, b])
    with pytest.raises(errors.UnknownKind):
        elementary_mean("median", Weights((0.5, 0.5)), [a, b])


def test_harmonic_is_adjoint_of_arithmetic():
    As = ensemble(3, 3, 900)
    harm = elementary_mean("harmonic", W3, As)
    inv_inputs = [validate_spd(np.linalg.inv(a.a)) for a in As]
    expect = np.linalg.inv(elementary_mean("arithmetic", W3, inv_inputs).a)
    np.testing.assert_allclose(harm.a, expect, atol=1e-12)


# ------------------------------------------------------------- deformed means


def test_deformed_mean_fixed_point_of_equal_inputs():
    a = random_spd(3, (0.5, 2.0), 31)
    res = deformed_mean(MultiMeanSpec.arithmetic(UNI3), geometric(0.5), [a, a, a])
    assert thompson_distance(res.value, a) < 5e-11


def test_deformed_mean_scalar_inputs_match_formula():
    # 1x1 matrices: the fixed point is the scalar power mean
    vals = [1.0, 4.0, 9.0]
    As = [validate_spd([[v]]) for v in vals]
    res = deformed_mean(MultiMeanSpec.arithmetic(W3), geometric(0.5), As)
    expect = (sum(w * v**0.5 for w, v in zip(W3.values, vals))) ** 2
    assert res.value.a[0, 0] == pytest.approx(expect, rel=1e-10)


def test_deformed_mean_right_trivial_short_circuit():
    As = ensemble(3, 3, 40)
    res = deformed_mean(MultiMeanSpec.arithmetic(W3), right_trivial(), As)
    np.testing.assert_allclose(res.value.a, elementary_mean("arithmetic", W3, As).a, atol=1e-13)
    with pytest.raises(errors.SigmaIsLeftTrivial):
        deformed_mean(MultiMeanSpec.arithmetic(W3), left_trivial(), As)


def fixed_point_gap(base, sigma, As, x):
    # independent one-step recomputation of X -> M(X sigma A_j)
    xh, xih = spd_sqrt_pair(x)
    blocks = sym(np.einsum("ij,njk,kl->nil", xih, np.stack([a.a for a in As]), xih))
    fw = eigh_apply(blocks, lambda t: rep_eval(sigma, t))
    if base.kind == "arithmetic":
        z = np.einsum("n,nij->ij", base.weights.asarray(), fw)
    else:
        z = np.linalg.inv(np.einsum("n,nij->ij", base.weights.asarray(), np.linalg.inv(fw)))
    return float(thompson(x, sym(xh @ z @ xh)))


@pytest.mark.parametrize(
    "base_kind,sigma",
    [
        ("arithmetic", geometric(0.25)),
        ("arithmetic", harmonic(0.5)),
        ("harmonic", geometric(0.5)),
        ("arithmetic", rep_transform(arithmetic(0.5), "adjoint")),
    ],
)
def test_deformed_mean_residual_contract(base_kind, sigma):
    As = ensemble(4, 3, 1234)
    base = getattr(MultiMeanSpec, base_kind)(W3)
    cfg = SolverConfig()
    res = deformed_mean(base, sigma, As, cfg)
    assert res.residual_dt <= cfg.dt_tol
    assert fixed_point_gap(base, sigma, As, res.value.a) < 2 * cfg.dt_tol


@pytest.mark.parametrize("field", ["dt_tol", "tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
def test_solver_config_rejects_bad_tolerances(field, value):
    with pytest.raises(ValueError):
        SolverConfig(**{field: value})


def test_deformed_mean_no_convergence_payload():
    As = ensemble(3, 3, 77)
    cfg = SolverConfig(max_iters=2)
    with pytest.raises(errors.NoConvergence) as info:
        deformed_mean(MultiMeanSpec.arithmetic(W3), geometric(0.25), As, cfg)
    assert info.value.last_iterate is not None
    assert info.value.residual > 0


def test_arithmetic_deformation_solves_normalized_residual_equation():
    # with an arithmetic base the fixed point is equivalently the zero of
    # sum_j w_j g(X^{-1/2} A_j X^{-1/2}) where g = (f - 1) / f'(1)
    As = ensemble(3, 3, 321)
    sigma = harmonic(0.4)
    res = deformed_mean(MultiMeanSpec.arithmetic(W3), sigma, As)
    _, xih = spd_sqrt_pair(res.value.a)
    blocks = sym(np.einsum("ij,njk,kl->nil", xih, np.stack([a.a for a in As]), xih))
    slope = sigma.derivative_at_one
    g_blocks = (eigh_apply(blocks, lambda t: rep_eval(sigma, t)) - np.eye(3)) / slope
    resid = np.einsum("n,nij->ij", W3.asarray(), g_blocks)
    assert np.abs(resid).max() < 1e-9


def test_nested_deformation():
    As = ensemble(2, 2, 55)
    w2 = Weights((0.5, 0.5))
    inner = MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(w2), geometric(0.5))
    outer = deformed_mean(inner, harmonic(0.5), As)
    assert fixed_point_gap_nested(inner, harmonic(0.5), As, outer.value.a) < 5e-11


def fixed_point_gap_nested(base, sigma, As, x):
    xh, xih = spd_sqrt_pair(x)
    blocks = sym(np.einsum("ij,njk,kl->nil", xih, np.stack([a.a for a in As]), xih))
    fw = eigh_apply(blocks, lambda t: rep_eval(sigma, t))
    z = eval_mean_stack(base, fw).values
    return float(thompson(x, sym(xh @ z @ xh)))


# ---------------------------------------------------------------- power means


def test_power_mean_alpha_one_is_arithmetic():
    As = ensemble(3, 3, 200)
    res = power_mean(W3, 1.0, As)
    np.testing.assert_allclose(res.value.a, elementary_mean("arithmetic", W3, As).a, atol=1e-10)


def test_power_mean_scalar_formula():
    for alpha in (0.5, 0.25, -0.5):
        a = [validate_spd([[1.0]]), validate_spd([[7.0]])]
        res = power_mean(Weights((0.6, 0.4)), alpha, a)
        expect = (0.6 + 0.4 * 7.0**alpha) ** (1 / alpha)
        assert res.value.a[0, 0] == pytest.approx(expect, rel=1e-9)


def test_power_mean_negative_alpha_is_adjoint():
    As = ensemble(3, 3, 300)
    neg = power_mean(W3, -0.5, As).value.a
    inv_inputs = [validate_spd(np.linalg.inv(a.a)) for a in As]
    expect = np.linalg.inv(power_mean(W3, 0.5, inv_inputs).value.a)
    assert np.abs(neg - expect).max() / np.abs(expect).max() < 1e-9


def monotone_reference(base, sigma, stack, w, tol=1e-11):
    # X <- base(X sigma A_1, ..., X sigma A_n) from lambda_max I, which lies
    # above the fixed point, so the iterates decrease in the Loewner order;
    # returns the last iterate and its Thompson step
    x = np.linalg.eigvalsh(stack)[..., -1].max(axis=-1)[..., None, None] * np.eye(stack.shape[-1])
    while True:
        xh, xih = (m[..., None, :, :] for m in spd_sqrt_pair(x))
        x_sigma_a = sym(xh @ eigh_apply(sym(xih @ stack @ xih), lambda u: rep_eval(sigma, u)) @ xh)
        z = eval_mean_stack(base, x_sigma_a, weights_override=w).values
        step, x = thompson(x, z), z
        if np.all(step < tol):
            return x, step


def _check_against_monotone(stack, w, t):
    # the geodesic solve of P_t against the monotone iteration of
    # X = sum_i w_i X #_t A_i: the monotone error is at most step (1 - t) / t
    cfg = SolverConfig()
    uni = Weights.uniform(stack.shape[-3])
    spec = MultiMeanSpec.power(uni, t)
    fast = eval_mean_stack(spec, stack, cfg, weights_override=w)
    mono, step = monotone_reference(MultiMeanSpec.arithmetic(uni), geometric(t), stack, w)
    fine = eval_mean_stack(spec, stack, SolverConfig(dt_tol=1e-12), weights_override=w)
    assert np.all(fast.residual_dt < cfg.dt_tol) and np.all(fine.residual_dt < 1e-12)
    assert np.all(thompson(fast.values, mono) <= step * (1 - t) / t + fast.residual_dt)
    # the two reported bounds cover the distance between the solves
    assert np.all(thompson(fast.values, fine.values) <= fast.residual_dt + fine.residual_dt)


@pytest.mark.parametrize("t", [0.5, 1 / 12, 1 / 64])
@pytest.mark.parametrize("dim", [2, 5, 8])
def test_power_mean_matches_monotone_route(t, dim):
    stack = np.stack([np.stack([a.a for a in ensemble(dim, 3, 700 + 10 * b)]) for b in range(4)])
    w = np.random.default_rng(dim).dirichlet(np.ones(3), size=4)
    _check_against_monotone(stack, w, t)


def test_power_mean_matches_monotone_route_at_condition_512():
    # 5.9[dim=2, r=3, alpha=0.25] solves P_{1/12} on cubes of inputs with
    # spread M/m = 8, under non-uniform trial weights
    data = _gen_cell_data("5.9", 2, 0.25, 8, 17)
    _check_against_monotone(spd_power(data.stack, 3.0), data.weights, 1 / 12)


def _mp_fixed_point(t, mats, w):
    # the 2x2 power mean P_t (Karcher at t = 0) to 50 digits: Newton on the
    # three entries of sum_i w_i f(X^{-1/2} A_i X^{-1/2}) = f(I), f = t-th power or log
    from mpmath import mp

    def fn(a, f):
        e, q = mp.eigsy(a)
        return q * mp.diag([f(u) for u in e]) * q.T

    mats = [mp.matrix(a.tolist()) for a in mats]
    power = mp.log if t == 0 else (lambda u: u**t)

    def eqs(x00, x01, x11):
        xih = fn(mp.matrix([[x00, x01], [x01, x11]]), lambda u: 1 / mp.sqrt(u))
        m = sum((mp.mpf(float(wi)) * fn(xih * a * xih, power) for wi, a in zip(w, mats)), -power(1) * mp.eye(2))
        return [m[0, 0], m[0, 1], m[1, 1]]

    return eqs, fn


@pytest.mark.parametrize("t", [0.5, 1 / 12, 1 / 64, 0.0])
def test_bound_covers_true_error_against_mpmath(t):
    # d = 2 ensembles of test_power_mean_matches_monotone_route: the Thompson
    # distance to a 50-digit solution stays within residual_dt, with no slack
    mp = pytest.importorskip("mpmath").mp
    stack = np.stack([np.stack([a.a for a in ensemble(2, 3, 700 + 10 * b)]) for b in range(4)])
    w = np.random.default_rng(2).dirichlet(np.ones(3), size=4)
    spec = MultiMeanSpec.karcher(UNI3) if t == 0 else MultiMeanSpec.power(UNI3, t)
    res = eval_mean_stack(spec, stack, QUIET, weights_override=w)
    with mp.workdps(50):
        for b in range(4):
            eqs, fn = _mp_fixed_point(t, stack[b], w[b])
            x = res.values[b]
            star = mp.findroot(eqs, (x[0, 0], x[0, 1], x[1, 1]))
            sih = fn(mp.matrix([[star[0], star[1]], [star[1], star[2]]]), lambda u: 1 / mp.sqrt(u))
            e, _ = mp.eigsy(sih * mp.matrix(x.tolist()) * sih)
            assert max(abs(mp.log(u)) for u in e) <= res.residual_dt[b], b


@pytest.mark.parametrize(
    "spec",
    [
        MultiMeanSpec.power(UNI3, 1 / 12),
        MultiMeanSpec.power(UNI3, -0.25),
        MultiMeanSpec.karcher(UNI3),
        MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(UNI3), harmonic(0.5)),
    ],
    ids=["power", "power-negative", "karcher", "deformed"],
)
def test_member_solved_alone_matches_batch(spec):
    # every member iterates on its own history and is frozen once converged,
    # so solving it alone gives the same bits as solving it among 8 (what
    # recheck relies on); the spreads differ, so the members stop apart
    spreads = [(1.0, 4.0 ** (b + 1)) for b in range(8)]
    stack = np.stack([np.stack([random_spd(4, spreads[b], 40 * b + j).a for j in range(3)]) for b in range(8)])
    w = np.random.default_rng(3).dirichlet(np.ones(3), size=8)
    batch = eval_mean_stack(spec, stack, QUIET, weights_override=w)
    for b in range(8):
        alone = eval_mean_stack(spec, stack[b], QUIET, weights_override=w[b])
        assert np.array_equal(alone.values, batch.values[b]), b
        assert np.array_equal(alone.residual_dt, batch.residual_dt[b]), b


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_deformed_bound_covers_tighter_solve_on_5_8_data(dim):
    # 5.8 cells deform the arithmetic mean by harmonic(1/2) on cubes of inputs
    # with spread M/m = 8; the bound must cover the distance to a solve at
    # 1e-13 (which may stop at its rounding floor 16 eps 8^3), and the fixed
    # point must match the monotone iteration
    data = _gen_cell_data("5.8", dim, 0.5, 12, 17)
    stack = spd_power(data.stack, 3.0)
    arith, sigma = MultiMeanSpec.arithmetic(UNI3), harmonic(0.5)
    spec = MultiMeanSpec.deformed(arith, sigma)
    fast = eval_mean_stack(spec, stack, QUIET, weights_override=data.weights)
    fine = eval_mean_stack(spec, stack, SolverConfig(dt_tol=1e-13), weights_override=data.weights)
    assert np.all(fast.residual_dt < QUIET.dt_tol)
    assert np.all(fine.residual_dt <= 16 * np.finfo(float).eps * 8.0**3)
    assert np.all(thompson(fast.values, fine.values) <= fast.residual_dt)
    mono, _ = monotone_reference(arith, sigma, stack, data.weights, tol=1e-13)
    assert np.all(thompson(fast.values, mono) <= 1e-10)


DEFORMED = MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(W3), harmonic(0.5))


def _ladder_spec(alpha):
    if alpha == "deformed":
        return DEFORMED
    return MultiMeanSpec.karcher(W3) if alpha is None else MultiMeanSpec.power(W3, alpha)


@pytest.mark.parametrize(
    "alpha,top,norm",
    [
        pytest.param(0.5, 8, 1.0, id="0.5-8"),
        pytest.param(-0.25, 6, 1.0, id="-0.25-6"),
        pytest.param(1 / 64, 8, 1.0, id="0.015625-8"),
        pytest.param(None, 4, 1.0, id="None-4"),
        # the Karcher floor is sqrt(d) = 2 times 16 eps kappa, the scale of
        # its Frobenius bound
        pytest.param(None, 8, 2.0, id="None-8"),
        pytest.param(None, 12, 2.0, id="None-12"),
        pytest.param("deformed", 7, 1.0, id="deformed-7"),
    ],
)
def test_condition_ladder(alpha, top, norm):
    # 4x4 inputs with spectra [1, 10^k]: every solve returns a finite bound,
    # at the tolerance or within norm times the rounding floor 16 eps kappa,
    # in at most 500 iterations
    spec = _ladder_spec(alpha)
    for k in range(1, top + 1):
        As = [random_spd(4, (1.0, 10.0**k), 100 * k + j) for j in range(3)]
        res = eval_mean(spec, As, QUIET)
        assert res.residual_dt <= max(QUIET.dt_tol, norm * 16 * np.finfo(float).eps * 10.0**k), k
        assert res.iterations <= 500, k
        assert np.all(np.isfinite(res.value.a))


@pytest.mark.parametrize("alpha", [0.5, -0.25, 1 / 64, None, "deformed"])
@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_scaled_inputs_keep_homogeneity(alpha, scale):
    # the solves start at the weighted arithmetic mean (the base mean of the
    # inputs for a deformed mean), so a scalar factor on the inputs (here near
    # the ends of the float range) passes through
    spec = _ladder_spec(alpha)
    As = ensemble(4, 3, 900)
    res = eval_mean(spec, [validate_spd(scale * a.a) for a in As])
    assert res.residual_dt < SolverConfig().dt_tol
    np.testing.assert_allclose(res.value.a / scale, eval_mean(spec, As).value.a, rtol=1e-9, atol=0)


def test_power_mean_alpha_zero_rejected():
    with pytest.raises(errors.AlphaZero):
        power_mean(W3, 0.0, ensemble(2, 3, 1))


def test_outer_power_of_geometric_deformation():
    # raising the representing function to p in (0, 1] composes exponents,
    # so the deformed mean is again a power mean
    As = ensemble(3, 3, 210)
    sigma = rep_transform(geometric(0.5), "power_outer", 0.6)
    via_deform = deformed_mean(MultiMeanSpec.arithmetic(W3), sigma, As).value.a
    direct = power_mean(W3, 0.3, As).value.a
    assert np.abs(via_deform - direct).max() / np.abs(direct).max() < 1e-9


# --------------------------------------------------------------- Karcher mean


def test_karcher_commuting_diagonals():
    a = validate_spd(np.diag([1.0, 2.0]))
    b = validate_spd(np.diag([3.0, 0.5]))
    res = karcher_mean(Weights((0.4, 0.6)), [a, b])
    expect = np.diag([3.0**0.6, 2.0**0.4 * 0.5**0.6])
    np.testing.assert_allclose(res.value.a, expect, atol=1e-9)
    assert res.enclosure_gap is not None and res.enclosure_gap < 1e-2


def test_karcher_two_variable_is_geometric_mean():
    a = random_spd(3, (0.5, 2.0), 61)
    b = random_spd(3, (0.5, 2.0), 62)
    for alpha in (0.3, 0.5):
        res = karcher_mean(Weights((1 - alpha, alpha)), [a, b])
        ah, aih = spd_sqrt_pair(a.a)
        expect = sym(ah @ eigh_apply(sym(aih @ b.a @ aih), lambda t: t**alpha) @ ah)
        assert np.abs(res.value.a - expect).max() / np.abs(expect).max() < 1e-9


def test_karcher_equal_inputs_zero_iterations():
    a = random_spd(3, (0.5, 2.0), 63)
    res = karcher_mean(UNI3, [a, a, a])
    assert res.iterations == 0
    assert thompson_distance(res.value, a) < 1e-12


def test_karcher_power_mean_ordering_and_limit():
    As = ensemble(3, 3, 4000)
    cfg = SolverConfig(certify=False)
    g = karcher_mean(W3, As, cfg).value
    prev_gap = None
    prev_upper = None
    for alpha in (1.0, 0.5, 0.25, 0.125):
        upper = power_mean(W3, alpha, As).value
        lower = power_mean(W3, -alpha, As).value
        assert np.linalg.eigvalsh(upper.a - g.a).min() >= -1e-9
        assert np.linalg.eigvalsh(g.a - lower.a).min() >= -1e-9
        gap = thompson_distance(upper, g)
        if prev_gap is not None:
            assert gap <= prev_gap + 1e-9
            # monotone in the positive semidefinite order along halving alphas
            assert np.linalg.eigvalsh(prev_upper.a - upper.a).min() >= -1e-9
        prev_gap, prev_upper = gap, upper


def test_karcher_certification_reports_gap():
    As = ensemble(4, 4, 71, spectrum=(0.6, 1.8))
    res = karcher_mean(Weights.uniform(4), As)
    assert res.enclosure_gap is not None
    assert 0 <= res.enclosure_gap < 1e-2


@pytest.mark.parametrize("batch", [1, 8])
def test_batched_enclosure_matches_separate_power_solves(batch):
    # both enclosure ends come from one solve at +t on [A, A^{-1}]; the gap
    # must match the ends solved one at a time, P_t(A) and P_{-t}(A)
    stack = np.stack(
        [np.stack([a.a for a in ensemble(3, 3, 900 + 10 * b, spectrum=(0.6, 1.8))]) for b in range(batch)]
    )
    w = W3.asarray()
    cfg = SolverConfig()
    vals = eval_mean_stack(MultiMeanSpec.karcher(W3), stack, QUIET).values
    gap = _certify_karcher(w, stack, vals, cfg)
    t = cfg.karcher_alpha
    upper, _, _ = _power_node(MultiMeanSpec.power(UNI3, t), stack, cfg, w)
    lower, _, _ = _power_node(MultiMeanSpec.power(UNI3, -t), stack, cfg, w)
    assert gap.shape == (batch,)
    np.testing.assert_allclose(gap, thompson(lower, upper), rtol=0, atol=1e-9)
    with pytest.raises(errors.CertificationFailure):
        _certify_karcher(w, stack, 1.05 * vals, cfg)


# ------------------------------------------------------------------ axioms


SPECS = [
    MultiMeanSpec.arithmetic(W3),
    MultiMeanSpec.harmonic(W3),
    MultiMeanSpec.power(W3, 0.5),
    MultiMeanSpec.power(W3, -0.25),
    MultiMeanSpec.karcher(W3),
    MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(W3), harmonic(0.5)),
    MultiMeanSpec.adjoint(MultiMeanSpec.power(W3, 0.5)),
]

QUIET = SolverConfig(certify=False)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + (str(s.alpha or "")))
def test_axioms(spec):
    rng = np.random.default_rng(17)
    As = ensemble(3, 3, 5000)
    base = eval_mean(spec, As, QUIET).value.a
    # normalization
    eyes = [validate_spd(np.eye(3))] * 3
    np.testing.assert_allclose(eval_mean(spec, eyes, QUIET).value.a, np.eye(3), atol=1e-10)
    # homogeneity
    scaled = [validate_spd(2.5 * a.a) for a in As]
    np.testing.assert_allclose(eval_mean(spec, scaled, QUIET).value.a, 2.5 * base, rtol=1e-9)
    # monotonicity under an upward perturbation
    bump = rng.standard_normal((3, 2))
    bigger = [validate_spd(As[0].a + 0.5 * bump @ bump.T)] + As[1:]
    up = eval_mean(spec, bigger, QUIET).value.a
    assert np.linalg.eigvalsh(up - base).min() >= -1e-9 * np.abs(base).max()
    # congruence invariance
    s = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    lhs = s.T @ base @ s
    rhs = eval_mean(spec, [validate_spd(s.T @ a.a @ s) for a in As], QUIET).value.a
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-8


@pytest.mark.parametrize("spec", SPECS[2:], ids=lambda s: s.kind + (str(s.alpha or "")))
def test_thompson_nonexpansive(spec):
    As = ensemble(3, 3, 6000)
    Bs = ensemble(3, 3, 7000)
    da = eval_mean(spec, As, QUIET).value
    db = eval_mean(spec, Bs, QUIET).value
    bound = max(thompson_distance(a, b) for a, b in zip(As, Bs))
    assert thompson_distance(da, db) <= bound + 1e-9


def test_harmonic_arithmetic_sandwich():
    As = ensemble(3, 3, 8000)
    harm = elementary_mean("harmonic", W3, As).a
    arit = elementary_mean("arithmetic", W3, As).a
    for spec in SPECS[2:6]:
        val = eval_mean(spec, As, QUIET).value.a
        assert np.linalg.eigvalsh(val - harm).min() >= -1e-9
        assert np.linalg.eigvalsh(arit - val).min() >= -1e-9


def test_degenerate_single_input():
    a = random_spd(3, (0.5, 2.0), 123)
    for spec in (
        MultiMeanSpec.arithmetic(Weights((1.0,))),
        MultiMeanSpec.karcher(Weights((1.0,))),
        MultiMeanSpec.power(Weights((1.0,)), 0.5),
    ):
        np.testing.assert_allclose(eval_mean(spec, [a], QUIET).value.a, a.a, atol=1e-13)


# ----------------------------------------------------------- comparison bound


def test_comparison_bound_at_fixed_point():
    As = ensemble(3, 3, 42)
    base = MultiMeanSpec.arithmetic(W3)
    res = deformed_mean(base, geometric(0.5), As)
    verdict = comparison_bound(base, geometric(0.5), As, res.value, "lower")
    assert verdict.relation in (Relation.EQUAL, Relation.LESS_EQUAL)
    verdict = comparison_bound(base, geometric(0.5), As, res.value, "upper")
    assert verdict.relation in (Relation.EQUAL, Relation.GREATER_EQUAL)


def test_comparison_bound_scaled_down():
    As = ensemble(3, 3, 43)
    base = MultiMeanSpec.arithmetic(W3)
    res = deformed_mean(base, geometric(0.5), As)
    y = validate_spd(0.9 * res.value.a)
    assert comparison_bound(base, geometric(0.5), As, y, "lower").holds_le


def test_comparison_bound_small_identity():
    As = ensemble(3, 3, 44)
    base = MultiMeanSpec.arithmetic(W3)
    lam = min(np.linalg.eigvalsh(a.a).min() for a in As)
    y = validate_spd(0.5 * lam * np.eye(3))
    assert comparison_bound(base, geometric(0.5), As, y, "lower").holds_le


def test_comparison_bound_hypothesis_fails():
    As = ensemble(3, 3, 45)
    base = MultiMeanSpec.arithmetic(W3)
    res = deformed_mean(base, geometric(0.5), As)
    y = validate_spd(1.5 * res.value.a)
    with pytest.raises(errors.HypothesisFails):
        comparison_bound(base, geometric(0.5), As, y, "lower")


# ---------------------------------------------------------------- adjoints


def test_adjoint_of_arithmetic_is_harmonic_mean():
    As = ensemble(3, 3, 46)
    got = adjoint_eval(MultiMeanSpec.arithmetic(W3), As).value.a
    np.testing.assert_allclose(got, elementary_mean("harmonic", W3, As).a, atol=1e-11)


def test_adjoint_involution():
    As = ensemble(3, 3, 47)
    spec = MultiMeanSpec.power(W3, 0.5)
    once = MultiMeanSpec.adjoint(spec)
    twice = MultiMeanSpec.adjoint(once)
    a = eval_mean(spec, As, QUIET).value.a
    b = eval_mean(twice, As, QUIET).value.a
    assert np.abs(a - b).max() / np.abs(a).max() < 1e-9


def test_power_mean_adjoint_identity():
    As = ensemble(3, 3, 48)
    lhs = adjoint_eval(MultiMeanSpec.power(W3, 0.5), As).value.a
    rhs = power_mean(W3, -0.5, As).value.a
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-9


def test_deformed_adjoint_commutation():
    # the adjoint of a deformation equals deforming the adjoint by the
    # adjoint two-variable mean
    As = ensemble(3, 3, 49)
    base = MultiMeanSpec.arithmetic(W3)
    sigma = harmonic(0.4)
    lhs = adjoint_eval(MultiMeanSpec.deformed(base, sigma), As).value.a
    rhs = deformed_mean(
        MultiMeanSpec.harmonic(W3), rep_transform(sigma, "adjoint"), As
    ).value.a
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-8


# ---------------------------------------------------------------- wire format


def test_meanspec_json_roundtrip():
    specs = SPECS + [MultiMeanSpec.deformed(MultiMeanSpec.karcher(W3), geometric(0.5))]
    for spec in specs:
        back = meanspec_from_json(meanspec_to_json(spec))
        assert back == spec
    with pytest.raises(errors.UnknownKind):
        meanspec_from_json({"kind": "median"})


def test_mean_result_serialization():
    a = random_spd(2, (0.5, 2.0), 1)
    res = MeanResult(value=a, iterations=3, residual_dt=1e-12, enclosure_gap=None)
    js = res.to_json()
    assert js["iterations"] == 3 and js["enclosure_gap"] is None
