import warnings

import numpy as np
import pytest

from opmeans import errors, inequalities, meanfns, multimeans
from opmeans.inequalities import _gen_cell_data
from opmeans.meanfns import (
    arithmetic,
    geometric,
    harmonic,
    left_trivial,
    rep_elasticity,
    rep_eval,
    rep_transform,
    right_trivial,
    two_var_mean,
)
from opmeans.multimeans import (
    DT_TOL,
    KARCHER_ALPHA,
    MeanResult,
    MultiMeanSpec,
    Weights,
    _certify_karcher,
    _eval_node,
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
    CHECK_TOL,
    Relation,
    Spectral,
    eigh_apply,
    order_margin,
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
    # float() reads True as 1 and "0.5" as 0.5, but neither is a number
    for bad in ((float("nan"), 1.0), (10**400, 0.0), ("half", 0.5), 3, (True, False), ("0.5", "0.5"), (np.True_, 0)):
        with pytest.raises(errors.InvalidWeights):
            Weights(bad)
    assert Weights.uniform(4).values == (0.25,) * 4
    assert Weights((1, np.float32(0.0))).values == (1.0, 0.0)


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


def test_deformed_mean_right_trivial_is_base_mean():
    # the solve starts at base(A), which a sigma acting as the right trivial
    # mean leaves fixed; harmonic(1) does so without being the right_trivial kind
    As = ensemble(3, 3, 40)
    for sigma in (right_trivial(), harmonic(1.0)):
        res = deformed_mean(MultiMeanSpec.arithmetic(W3), sigma, As)
        np.testing.assert_allclose(res.value.a, elementary_mean("arithmetic", W3, As).a, atol=1e-13)
        assert res.iterations == 0
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
    res = deformed_mean(base, sigma, As)
    assert res.residual_dt <= DT_TOL
    assert fixed_point_gap(base, sigma, As, res.value.a) < 2 * DT_TOL


def test_deformed_mean_no_convergence_payload(monkeypatch):
    As = ensemble(3, 3, 77)
    monkeypatch.setattr(multimeans, "MAX_ITERS", 2)
    with pytest.raises(errors.NoConvergence) as info:
        deformed_mean(MultiMeanSpec.arithmetic(W3), geometric(0.25), As)
    assert info.value.last_iterate is not None
    assert info.value.residual > 0
    # the one member is named, with its bound and residual, in the exception
    # and its message; the bound is rho / e with an elasticity e <= 1
    (member,) = info.value.members
    assert member == {"member": 0, "what": "deformed-mean", "bound": info.value.residual, "residual": member["residual"]}
    assert 0 < member["residual"] <= member["bound"]
    assert "0 (deformed-mean, bound " in str(info.value)


def test_certified_karcher_no_convergence_names_members(monkeypatch):
    # a certified solve is one loop call over [A] at 0 and [A], [A^{-1}] at
    # KARCHER_ALPHA; a failure says which of the three members stopped short
    As = ensemble(3, 3, 77)
    monkeypatch.setattr(multimeans, "MAX_ITERS", 1)  # all three converge in two steps
    with pytest.raises(errors.NoConvergence) as info:
        karcher_mean(W3, As)
    members = info.value.members
    assert [m["member"] for m in members] == [0, 1, 2]
    whats = [m["what"] for m in members]
    assert whats == ["Karcher", f"enclosure end P_{KARCHER_ALPHA}", f"enclosure end P_-{KARCHER_ALPHA}"]
    assert all(m["bound"] >= DT_TOL for m in members)
    assert info.value.residual == max(m["bound"] for m in members)
    for m in members:
        assert f"{m['member']} ({m['what']}, bound {m['bound']:.3e})" in str(info.value)


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


@pytest.mark.parametrize(
    "base",
    [
        MultiMeanSpec.karcher(W3),
        MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(W3), geometric(0.5)),
        MultiMeanSpec.adjoint(MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(W3), harmonic(0.4))),
        MultiMeanSpec.power(W3, -0.5),
    ],
    ids=["karcher-base", "nested-deformed-base", "adjoint-deformed-base", "negative-power-base"],
)
def test_deformed_mean_over_an_iterative_base_is_one_loop_call(base, monkeypatch):
    # the deformed mean and its base compile to one residual, so the solve is
    # one geodesic loop call: no solve of the base for the start or per frame.
    # The gap recomputes the base on its own, where an adjoint or a negative
    # power goes through the inverses
    As = ensemble(3, 3, 77)
    calls, loop = [], multimeans._geodesic_loop

    def counted(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(multimeans, "_geodesic_loop", counted)
    res = deformed_mean(base, harmonic(0.5), As)
    assert len(calls) == 1
    monkeypatch.undo()
    assert res.residual_dt <= DT_TOL
    assert fixed_point_gap_nested(base, harmonic(0.5), As, res.value.a) < 5e-11


def fixed_point_gap_nested(base, sigma, As, x):
    xh, xih = spd_sqrt_pair(x)
    blocks = sym(np.einsum("ij,njk,kl->nil", xih, np.stack([a.a for a in As]), xih))
    fw = eigh_apply(blocks, lambda t: rep_eval(sigma, t))
    z = eval_mean_stack(base, fw).values
    return float(thompson(x, sym(xh @ z @ xh)))


# ---------------------------------------------------------------- power means


def test_power_mean_alpha_one_is_arithmetic():
    # P_1 is the weighted sum itself, with no Newton step
    As = ensemble(3, 3, 200)
    res = power_mean(W3, 1.0, As)
    assert np.array_equal(res.value.a, elementary_mean("arithmetic", W3, As).a)
    assert (res.iterations, res.residual_dt) == (0, 0.0)


def test_power_mean_alpha_minus_one_is_harmonic():
    # P_{-1} is P_1 of the inverses, inverted: the harmonic closed form
    As = ensemble(3, 3, 200)
    res = power_mean(W3, -1.0, As)
    assert np.array_equal(res.value.a, elementary_mean("harmonic", W3, As).a)
    assert (res.iterations, res.residual_dt) == (0, 0.0)


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
    uni = Weights.uniform(stack.shape[-3])
    spec = MultiMeanSpec.power(uni, t)
    fast = eval_mean_stack(spec, stack, weights_override=w)
    mono, step = monotone_reference(MultiMeanSpec.arithmetic(uni), geometric(t), stack, w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multimeans, "DT_TOL", 1e-12)
        fine, _, fine_bound = _eval_node(spec, stack, w)
    assert np.all(fast.residual_dt < DT_TOL) and np.all(fine_bound < 1e-12)
    assert np.all(thompson(fast.values, mono) <= step * (1 - t) / t + fast.residual_dt)
    # the two reported bounds cover the distance between the solves
    assert np.all(thompson(fast.values, fine) <= fast.residual_dt + fine_bound)


@pytest.mark.parametrize("t", [0.5, 1 / 12, 1 / 64])
@pytest.mark.parametrize("dim", [2, 5, 8])
def test_power_mean_matches_monotone_route(t, dim):
    stack = np.stack([np.stack([a.a for a in ensemble(dim, 3, 700 + 10 * b)]) for b in range(4)])
    w = np.random.default_rng(dim).dirichlet(np.ones(3), size=4)
    _check_against_monotone(stack, w, t)


@pytest.mark.parametrize("p", [0.0, 1 / 64, 0.5, "deformed"])
def test_newton_operator_is_the_derivative_of_the_frame_residual(p):
    # H[D] = -d/dt F(t) at t = 0 for F(t) = sum_i w_i phi(g(e^{-tD/2} B_i e^{-tD/2})),
    # phi = log at p = 0 and (u^p - 1) / p otherwise, against a central
    # difference; g is the identity, or for "deformed" the chain of 5.8's
    # mean (p = 1, g = harmonic(1/2)); B_0 has a repeated eigenvalue, where
    # the kernel takes its lam_j = lam_k limit (the elasticity of g)
    rng = np.random.default_rng(11)
    q = np.linalg.qr(rng.standard_normal((3, 3, 3)))[0]
    lam = np.array([[2.0, 2.0, 0.5], [0.3, 1.0, 4.0], [0.7, 1.5, 3.0]])
    b = (q * lam[:, None, :]) @ q.swapaxes(-1, -2)
    w = np.array([0.2, 0.3, 0.5])
    g = rng.standard_normal((3, 3))
    delta = g + g.T
    sigma = harmonic(0.5) if p == "deformed" else right_trivial()
    p = 1.0 if p == "deformed" else p
    phi = np.log if p == 0 else (lambda u: np.expm1(p * np.log(u)) / p)

    def resid(t):
        e = eigh_apply(-0.5 * t * delta, np.exp)
        return np.einsum("n,nij->ij", w, eigh_apply(sym(e @ b @ e), lambda u: phi(rep_eval(sigma, u))))

    h = 1e-5
    fd = -(resid(h) - resid(-h)) / (2 * h)
    lg, el = np.log(rep_eval(sigma, lam))[None], rep_elasticity(sigma, lam, lam)[0][None]
    kern = multimeans._newton_kernel(np.array([p]), np.log(lam)[None], lg, el) * w[None, :, None, None]
    got = multimeans._newton_apply(q[None], kern, delta[None])[0]
    np.testing.assert_allclose(got, fd, rtol=0, atol=1e-8 * np.abs(fd).max())


@pytest.mark.parametrize(
    "family, spec",
    [
        ("3.13", MultiMeanSpec.karcher(None)),
        ("4.4", MultiMeanSpec.power(None, 0.5)),
        ("5.8", MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(None), harmonic(0.5))),
    ],
)
def test_newton_solves_cell_means_in_few_iterations(family, spec):
    # a 200-trial group at d = 5 raised to r = 3: every member meets DT_TOL
    # within 6 Newton iterations, 8 for 5.8's deformed mean (measured: 7;
    # the damped gradient loop took up to 21, the Anderson-mixed one 45)
    data = _gen_cell_data(family, 5, None if spec.kind == "karcher" else 0.5, 200, 0)
    res = eval_mean_stack(spec, spd_power(data.stack, 3.0), data.weights, certify=False)
    assert res.iterations <= (8 if spec.kind == "deformed" else 6)
    assert np.all(res.residual_dt < DT_TOL)


def test_power_mean_matches_monotone_route_at_condition_512():
    # 5.9[dim=2, r=3, alpha=0.25] solves P_{1/12} on cubes of inputs with
    # spread M/m = 8, under non-uniform trial weights
    data = _gen_cell_data("5.9", 2, 0.25, 8, 17)
    _check_against_monotone(spd_power(data.stack, 3.0), data.weights, 1 / 12)


def _mp_fixed_point(t, mats, w, g=None):
    # the 2x2 mean of residual sum_i w_i phi_t(g(X^{-1/2} A_i X^{-1/2})) = 0
    # to 50 digits (g None: the power mean P_t, Karcher at t = 0): Newton on
    # the three entries of sum_i w_i f(g(B_i)) = f(I), f = t-th power or log
    from mpmath import mp

    def fn(a, f):
        e, q = mp.eigsy(a)
        return q * mp.diag([f(u) for u in e]) * q.T

    mats = [mp.matrix(a.tolist()) for a in mats]
    power = mp.log if t == 0 else (lambda u: u**t)
    chain = power if g is None else (lambda u: power(g(u)))

    def eqs(x00, x01, x11):
        xih = fn(mp.matrix([[x00, x01], [x01, x11]]), lambda u: 1 / mp.sqrt(u))
        m = sum((mp.mpf(float(wi)) * fn(xih * a * xih, chain) for wi, a in zip(w, mats)), -power(1) * mp.eye(2))
        return [m[0, 0], m[0, 1], m[1, 1]]

    return eqs, fn


@pytest.mark.parametrize("t", [0.5, 1 / 12, 1 / 64, 0.0, "deformed"])
def test_bound_covers_true_error_against_mpmath(t):
    # d = 2 ensembles of test_power_mean_matches_monotone_route: the Thompson
    # distance to a 50-digit solution stays within residual_dt, with no slack;
    # "deformed" is 5.8's mean, the arithmetic mean deformed by harmonic(1/2),
    # whose residual is sum_i w_i (g(B_i) - 1) with g(u) = 1 / (1/2 + 1/(2u))
    mp = pytest.importorskip("mpmath").mp
    stack = np.stack([np.stack([a.a for a in ensemble(2, 3, 700 + 10 * b)]) for b in range(4)])
    w = np.random.default_rng(2).dirichlet(np.ones(3), size=4)
    g = None
    if t == "deformed":
        spec, t = MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(UNI3), harmonic(0.5)), 1

        def g(u):
            return 1 / (mp.mpf(1) / 2 + 1 / (2 * u))
    else:
        spec = MultiMeanSpec.karcher(UNI3) if t == 0 else MultiMeanSpec.power(UNI3, t)
    res = eval_mean_stack(spec, stack, weights_override=w, certify=False)
    with mp.workdps(50):
        for b in range(4):
            eqs, fn = _mp_fixed_point(t, stack[b], w[b], g)
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
        MultiMeanSpec.deformed(MultiMeanSpec.power(UNI3, 0.5), harmonic(0.5)),
    ],
    ids=["power", "power-negative", "karcher", "deformed", "deformed-iterative-base"],
)
def test_member_solved_alone_matches_batch(spec):
    # every member iterates on its own history and is frozen once converged,
    # so solving it alone gives the same bits as solving it among 8 (what
    # recheck relies on); the spreads differ, so the members stop apart
    spreads = [(1.0, 4.0 ** (b + 1)) for b in range(8)]
    stack = np.stack([np.stack([random_spd(4, spreads[b], 40 * b + j).a for j in range(3)]) for b in range(8)])
    w = np.random.default_rng(3).dirichlet(np.ones(3), size=8)
    batch = eval_mean_stack(spec, stack, weights_override=w, certify=False)
    for b in range(8):
        alone = eval_mean_stack(spec, stack[b], weights_override=w[b], certify=False)
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
    fast = eval_mean_stack(spec, stack, weights_override=data.weights)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multimeans, "DT_TOL", 1e-13)
        fine, _, fine_bound = _eval_node(spec, stack, data.weights)
    assert np.all(fast.residual_dt < DT_TOL)
    assert np.all(fine_bound <= 16 * np.finfo(float).eps * 8.0**3)
    assert np.all(thompson(fast.values, fine) <= fast.residual_dt)
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
        pytest.param(0.5, 12, 1.0, id="0.5-12"),
        pytest.param(-0.25, 12, 1.0, id="-0.25-12"),
        pytest.param(1 / 64, 12, 1.0, id="0.015625-12"),
        pytest.param(None, 4, 1.0, id="None-4"),
        # the Karcher floor is sqrt(d) = 2 times 16 eps kappa, the scale of
        # its Frobenius bound
        pytest.param(None, 8, 2.0, id="None-8"),
        pytest.param(None, 12, 2.0, id="None-12"),
        # at 1e12 the eigenpair-carried iterate ended this row with an
        # infinite bound (e < e_0 / 2); the triangular factor reaches it
        pytest.param("deformed", 12, 1.0, id="deformed-12"),
    ],
)
def test_condition_ladder(alpha, top, norm):
    # 4x4 inputs with spectra [1, 10^k]: every solve returns a finite bound,
    # at the tolerance or within norm times the rounding floor 16 eps kappa.
    # Every solve takes Newton steps: at most 7 iterations up to 1e5 and 18
    # above it were measured, so 8 and 20 are allowed (the damped gradient
    # loop took up to 70, the Anderson-mixed deformed loop up to 257)
    spec = _ladder_spec(alpha)
    for k in range(1, top + 1):
        As = [random_spd(4, (1.0, 10.0**k), 100 * k + j) for j in range(3)]
        res = eval_mean(spec, As, certify=False)
        assert res.residual_dt <= max(DT_TOL, norm * 16 * np.finfo(float).eps * 10.0**k), k
        assert res.iterations <= (8 if k <= 5 else 20), k
        assert np.all(np.isfinite(res.value.a))


@pytest.mark.parametrize(
    "spec, spread, seed, certify",
    [
        pytest.param(MultiMeanSpec.power(W3, -0.25), 1e12, 6200, False, id="power-negative-1e12"),
        pytest.param(MultiMeanSpec.karcher(W3), 5e11, 7010, True, id="karcher-certified-5e11"),
        pytest.param(DEFORMED, 5e11, 7000, False, id="deformed-5e11"),
        pytest.param(DEFORMED, 1e12, 102240, False, id="deformed-1e12"),
    ],
)
def test_wide_spread_solves_return_within_their_floor(spec, spread, seed, certify):
    # the first three raised when the loop carried the eigenpair of log X:
    # the start frame of P_{-1/4} lost positive definiteness, the
    # certificate's lower end stalled above its floor, and the deformed bound
    # stayed infinite.  The last raised with an infinite bound after 69 steps
    # while every step was exponential; with the retraction for small steps
    # it returns in 15
    As = [random_spd(4, (1.0, spread), seed + j) for j in range(3)]
    res = eval_mean(spec, As, certify=certify)
    assert res.residual_dt <= max(DT_TOL, 2 * 16 * np.finfo(float).eps * spread)
    assert res.iterations <= 20
    assert np.isfinite(res.enclosure_gap) if certify else res.enclosure_gap is None


def _karcher_3_13_decompositions(held, monkeypatch):
    """``(n, iterations, matrices decomposed, matrices QR'd)`` of an uncertified
    Karcher solve on 3.13's trials at d = 5, handed over as a Spectral with
    its decomposition held or as a plain array."""
    data = _gen_cell_data("3.13", 5, None, 200, 0)
    trials = Spectral(data.stack)
    if held:
        trials.eig
    sizes, qrs = [], []
    eigh, eigvalsh, qr = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.qr
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(np.prod(np.shape(a)[:-2])) or eigh(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(np.prod(np.shape(a)[:-2])) or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode="reduced": qrs.append(np.prod(np.shape(a)[:-2])) or qr(a, mode))
    _, iters, _ = _eval_node(MultiMeanSpec.karcher(None), trials if held else data.stack, data.weights)
    assert iters.sum() > 0
    return data.stack.shape[-3], iters, sum(sizes), qrs


def test_karcher_solve_decomposes_n_matrices_per_member_step_and_qrs_its_start(monkeypatch):
    # the frame decomposes the n matrices B_i; on this data every Newton step
    # is small, so the retraction steps with no eigh of D and no QR (the
    # exponential step took n + 1 matrices and one QR per member-iteration,
    # the eigenpair-carried loop n + 2).  The inputs come with their
    # decomposition, as a campaign group's do, so the floor takes none; the
    # start A # H is one spectral step from A_w, one d x d matrix and one QR
    # per member, all in one batched call
    n, iters, decomposed, qrd = _karcher_3_13_decompositions(True, monkeypatch)
    assert decomposed <= n * (iters.sum() + iters.size) + iters.size
    assert qrd == [iters.size]


def test_karcher_solve_on_a_plain_array_decomposes_its_inputs_for_the_floor(monkeypatch):
    # a plain array has no decomposition to read the rounding floor from, so
    # the solve takes one of its n inputs per member on top of the frames'
    # and the start's; the same decomposition gives the inverses of H_w
    n, iters, decomposed, qrd = _karcher_3_13_decompositions(False, monkeypatch)
    assert decomposed <= n * (iters.sum() + 2 * iters.size) + iters.size
    assert qrd == [iters.size]


@pytest.mark.parametrize("d", [2, 5, 8])
def test_retraction_agrees_with_the_exponential_to_second_order(d):
    # C C^T = I - t + t^2 / 2 differs from e^{-t} by at most the exponential
    # series' remainder past its quadratic term, for symmetric t up to the
    # largest step that takes the retraction; C is lower triangular
    rng = np.random.default_rng(d)
    g = rng.standard_normal((40, d, d))
    t = g + g.swapaxes(-1, -2)
    tau = np.sqrt(6 * multimeans._CG_FORCING)
    t *= (tau * np.geomspace(1e-3, 1.0, 40) / np.linalg.norm(t, axis=(-2, -1)))[:, None, None]
    c = multimeans._retraction(t)
    assert np.array_equal(c, np.tril(c))
    norm = np.linalg.norm(t, ord=2, axis=(-2, -1))
    remainder = np.expm1(norm) - norm - norm * norm / 2
    err = np.linalg.norm(c @ c.swapaxes(-1, -2) - eigh_apply(-t, np.exp), ord=2, axis=(-2, -1))
    assert np.all(err <= remainder + 8 * d * np.finfo(float).eps)


def test_mixed_batch_of_large_and_small_steps_matches_each_member_alone(monkeypatch):
    # a member at spread 1e8 takes exponential steps, which QR the stepped
    # factor; one at spread 2 takes only retraction steps, which do not, so
    # its one QR is its start's.  Solved side by side, each keeps the bits
    # and the count of its own solve
    wide = np.stack([random_spd(4, (1.0, 1e8), 800 + j).a for j in range(3)])
    narrow = np.stack([random_spd(4, (1.0, 2.0), 810 + j).a for j in range(3)])
    qrs, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode="reduced": qrs.append(len(a)) or qr(a, mode))

    def solve(stack):
        qrs.clear()
        return (*multimeans._geodesic_loop(W3.asarray(), 0.0, (), Spectral(stack), "Karcher", False), sum(qrs))

    both = solve(np.stack([wide, narrow]))
    alone = [solve(wide[None]), solve(narrow[None])]
    assert alone[0][-1] > 1 and alone[1][-1] == 1 and alone[1][1][0] > 0
    for b in range(2):
        for got, want in zip(both[:-1], alone[b][:-1]):  # values, counts, bounds and factors
            assert np.array_equal(got[b], want[0]), b


def test_step_below_rounding_is_rejected(monkeypatch):
    # at spread 1e10 harmonic(1/4) over the arithmetic mean reaches a residual
    # of 5.7e-10 with an infinite bound; a retraction of theta D below
    # rounding leaves S unchanged, so its residual does not rise.  Taken as
    # accepted, the cap grew back and the loop cycled to MAX_ITERS; rejected,
    # the damping collapses and the member is named
    monkeypatch.setattr(multimeans, "MAX_ITERS", 1000)
    As = [random_spd(4, (1.0, 1e10), 60090 + j) for j in range(3)]
    with pytest.raises(errors.NoConvergence, match=r"stopped above its tolerance after \d{2,3} steps") as info:
        deformed_mean(MultiMeanSpec.arithmetic(W3), harmonic(0.25), As)
    assert [m["member"] for m in info.value.members] == [0]


@pytest.mark.parametrize("base", [
    MultiMeanSpec.arithmetic(W3), MultiMeanSpec.power(W3, 0.5), MultiMeanSpec.karcher(W3),
], ids=["arithmetic", "power-0.5", "karcher"])
@pytest.mark.parametrize("sigma", [harmonic, geometric])
def test_deformed_sweep_returns_a_finite_bound_or_names_its_member(sigma, base):
    # deformations by harmonic(alpha) and geometric(alpha), alpha in {0.1,
    # 0.25, 0.5, 1}, on 4x4 inputs with spectra [1, 10^k]: a solve returns a
    # finite bound or raises NoConvergence naming its member; no LinAlgError
    # escapes, and RuntimeWarnings are errors in this suite
    for alpha in (0.1, 0.25, 0.5, 1.0):
        spec = MultiMeanSpec.deformed(base, sigma(alpha))
        for k in (2, 5, 8):
            As = [random_spd(4, (1.0, 10.0**k), 50000 + 1000 * k + j) for j in range(3)]
            try:
                res = eval_mean(spec, As)
            except errors.NoConvergence as exc:
                assert [(m["member"], m["what"]) for m in exc.members] == [(0, "deformed-mean")], (alpha, k)
            else:
                assert np.isfinite(res.residual_dt), (alpha, k)


def test_indefinite_start_raises_no_convergence(monkeypatch):
    # the start is a Cholesky factorization; its failure is typed.  The
    # rounding floor, which rejects an indefinite input first, is bypassed
    monkeypatch.setattr(multimeans, "_rounding_floor", lambda a: 0.0)
    x = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(errors.NoConvergence, match="geodesic start is not positive definite"):
        multimeans._geodesic_loop(np.array([0.5, 0.5]), 0.0, (), Spectral(np.stack([x, x])), "Karcher", False)


def _starts(stack, w, p):
    """``(S, X)`` of the arithmetic and the second-order start of a loop solve
    at exponent ``p`` per member, ``S S^T = X^{-1}``, on plain (m, n, d, d) arrays."""
    low = np.linalg.cholesky(multimeans._weighted_sum(w, stack)[..., ::-1, ::-1])
    hinv = multimeans._weighted_sum(w, np.linalg.inv(stack))
    s0 = multimeans._inverse_factor(low)
    start = multimeans._spectral_step(s0, *multimeans._second_order_start(low, hinv, p, w.min(axis=-1)))
    return [(s0, (low @ low.swapaxes(-1, -2))[..., ::-1, ::-1]), (start, multimeans._node_value(start, False))]


@pytest.mark.parametrize("spread", [2.0, 1e4, 1e8])
def test_second_order_start_lies_between_the_harmonic_and_arithmetic_means(spread):
    # A_w #_s H_w with s = (1 - p) / 2 sits on the geodesic from A_w to H_w,
    # so H_w <= X_0 <= A_w
    rng = np.random.default_rng(int(np.log10(spread)))
    stack = np.stack([[random_spd(4, (1.0, spread), 9000 + 10 * m + j).a for j in range(3)] for m in range(8)])
    w = rng.dirichlet(np.ones(3), size=8)
    p = np.linspace(0.0, 0.95, 8)
    (_, arith), (_, x0) = _starts(stack, w, p)
    harm = np.linalg.inv(multimeans._weighted_sum(w, np.linalg.inv(stack)))
    np.testing.assert_allclose(arith, multimeans._weighted_sum(w, stack), rtol=1e-14, atol=0)
    assert np.all(order_margin(harm, x0) >= -1e-14)
    assert np.all(order_margin(x0, arith) >= -1e-14)
    # and at p = 0 it is A # H, to the rounding of inputs of condition spread
    geo = two_var_mean(geometric(0.5), validate_spd(arith[0]), validate_spd(harm[0])).a
    assert thompson(x0[0], geo) < 1e-13 * spread


@pytest.mark.parametrize("p", [0.0, KARCHER_ALPHA, 0.5, 0.9])
def test_second_order_start_residual_falls_like_the_cube_of_the_spread(p):
    # on A_i = I + eps E_i the start agrees with P_p to second order, so its
    # frame residual falls a thousandfold per decade of eps; that of A_w,
    # which agrees to first order, a hundredfold
    rng = np.random.default_rng(31)
    e = np.stack([g + g.T for g in rng.standard_normal((3, 4, 4))])
    e /= np.linalg.norm(e, ord=2, axis=(-2, -1))[:, None, None]
    w = np.array([[0.2, 0.3, 0.5]])
    resid = []
    for eps in (1e-1, 1e-2, 1e-3):
        stack = (np.eye(4) + eps * e)[None]
        pair = [multimeans._frame(w, np.array([p]), (), stack, s, np.zeros(1))[1][0]
                for s, _ in _starts(stack, w, np.array([p]))]
        resid.append(pair)
    (arith, start) = np.array(resid).T
    assert np.all(start[1:] <= start[:-1] / 300), start
    assert np.all(arith[1:] >= arith[:-1] / 300), arith


@pytest.mark.parametrize("case", ["subnormal", "spread-1e16"])
def test_start_that_fails_falls_back_to_the_arithmetic_mean(case, monkeypatch):
    # eigenvalues near 1e-310 have inverses past the float range, so H_w
    # cannot be formed; at spread 1e16 the start's first frame is not
    # positive definite.  Either member starts at A_w, as every solve did
    # before the second-order start, and returns the bits of that solve
    if case == "subnormal":
        spec, stack = MultiMeanSpec.karcher(W3), np.stack([np.diag([1e-310 * (j + 1), 1e-309]) for j in range(3)])
    else:
        spec, stack = MultiMeanSpec.power(W3, -0.5), np.stack([random_spd(4, (1.0, 1e16), 777 + j).a for j in range(3)])
    got = eval_mean_stack(spec, stack, certify=False)

    def unformed(low, hinv, p, w_min):  # as an inverse past the float range: no start, A_w's factor kept
        raise errors.DomainError("no start")

    monkeypatch.setattr(multimeans, "_second_order_start", unformed)
    want = eval_mean_stack(spec, stack, certify=False)
    assert np.array_equal(got.values, want.values)
    assert (got.iterations, got.residual_dt) == (want.iterations, want.residual_dt)
    assert np.isfinite(got.residual_dt)


@pytest.mark.parametrize("d", range(2, 9))
def test_uniform_two_matrix_karcher_mean_is_its_start(d):
    # for two matrices at equal weights the Karcher mean is A # B = A # H:
    # the certified solve takes no Newton step and returns the two-variable
    # geometric mean to rounding
    A, B = random_spd(d, (0.5, 2.0), 4000 + d), random_spd(d, (0.5, 2.0), 4100 + d)
    res = karcher_mean(Weights.uniform(2), [A, B])
    want = two_var_mean(geometric(0.5), A, B).a
    assert res.iterations == 0
    assert np.isfinite(res.enclosure_gap)
    assert np.abs(res.value.a - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("p", [0.0, 0.9, -0.9, 0.5, -0.5, KARCHER_ALPHA, -KARCHER_ALPHA])
def test_two_matrix_solve_starts_at_its_exact_mean(p):
    # P_p(A, B) = A^{1/2} (w_1 + w_2 C^p)^{1/p} A^{1/2}, C = A^{-1/2} B
    # A^{-1/2}, and G = A #_{w_2} B: the loop starts there, so the solve and
    # a certified Karcher solve's enclosure ends take no Newton step
    w = (0.3, 0.7)
    for d in (2, 5):
        stack = np.stack([random_spd(d, (0.5, 2.0), 4200 + 10 * d + j).a for j in range(2)])
        spec = MultiMeanSpec.karcher(Weights(w)) if p == 0 else MultiMeanSpec.power(Weights(w), p)
        res = eval_mean_stack(spec, stack)
        fn = (lambda x: x ** w[1]) if p == 0 else (lambda x: (w[0] + w[1] * x**p) ** (1 / p))
        want = meanfns._two_var_arrays(fn, stack[0], stack[1])
        assert res.iterations == 0
        assert np.all(res.residual_dt < DT_TOL)
        assert thompson(res.values, want) < 1e-13
    t = KARCHER_ALPHA
    ends = multimeans._geodesic_loop(np.array(w), (0.0, t, t), (), Spectral(stack), "K", (False, False, True))
    assert not ends[1].any()


@pytest.mark.parametrize("w", [(1.0, 0.0), (0.0, 1.0), (1e-9, 1 - 1e-9)])
def test_two_matrix_start_at_an_extreme_weight_is_the_mean(w):
    # B_2 = (I - w_1 B_1) / w_2 in A_w's frame divides by w_2: at w_2 = 0 the
    # mean is A_1, and at every extreme weight the start is the mean, reached
    # with no warning and no Newton step
    stack = np.stack([random_spd(4, (0.5, 2.0), 4300 + j).a for j in range(2)])
    for p in (0.0, 0.5, -0.5):
        spec = MultiMeanSpec.karcher(Weights(w)) if p == 0 else MultiMeanSpec.power(Weights(w), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = eval_mean_stack(spec, stack)
        fn = (lambda x: x ** w[1]) if p == 0 else (lambda x: (w[0] + w[1] * x**p) ** (1 / p))
        want = meanfns._two_var_arrays(fn, stack[0], stack[1])
        assert res.iterations == 0 and np.all(res.residual_dt < DT_TOL), (w, p)
        assert thompson(res.values, want) < 1e-13, (w, p)


def test_two_matrix_start_saves_the_steps_of_wide_spreads():
    # the two-matrix sweep at spread 1e4 (4x4 inputs, weights (0.3, 0.7),
    # seeds 0-7; P_p at p = +-0.9, +-0.5, +-0.25, +-1/64 and the Karcher mean
    # with and without its certificate): 53 Newton steps from the exact mean
    # formed through A_1^{+-1/2}, 2 from the one formed in A_w's frame
    w = Weights((0.3, 0.7))
    specs = [(MultiMeanSpec.power(w, s * p), True) for p in (0.9, 0.5, 0.25, KARCHER_ALPHA) for s in (1, -1)]
    specs += [(MultiMeanSpec.karcher(w), False), (MultiMeanSpec.karcher(w), True)]
    steps = 0
    for s in range(8):
        stack = np.stack([random_spd(4, (1.0, 1e4), 31000 + 100 * s + j).a for j in range(2)])
        steps += sum(eval_mean_stack(spec, stack, certify=c).iterations for spec, c in specs)
    assert steps <= 12


def test_second_order_start_is_clamped_at_the_power_mean_lower_bound(monkeypatch):
    # for p > 0, P_p >= w_min^{1/p} A_w.  At spread 1e14, A_w #_s H_w
    # lies up to s log(spread) below A_w, past that bound; the start is
    # clamped to it, and the solves then take fewer Newton steps
    w = W3.asarray()[None]
    clamped = multimeans._second_order_start
    stacks = [np.stack([random_spd(4, (1.0, 1e14), 31000 + 100 * s + j).a for j in range(3)]) for s in range(4)]
    for stack in stacks:
        aw = multimeans._weighted_sum(w, stack[None])
        for p in (0.9, 0.5, 0.25):
            bound = 0.2 ** (1 / p) * aw
            x0 = _starts(stack[None], w, np.array([p]))[1][1]
            assert order_margin(bound, x0)[0] >= -1e-15
            assert order_margin(bound, eval_mean_stack(MultiMeanSpec.power(W3, p), stack).values) >= 0

    def steps():
        return sum(eval_mean_stack(MultiMeanSpec.power(W3, p), stack).iterations
                   for stack in stacks for p in (0.9, 0.5, 0.25, -0.9, -0.5, -0.25))

    with_clamp = steps()
    monkeypatch.setattr(multimeans, "_second_order_start", lambda low, hinv, p, w_min: clamped(low, hinv, p, 0 * w_min))
    assert with_clamp < steps()


# the certified Karcher iterations of mean_certified's 56 ensembles at seed 0
# (dim 2 + s % 7, n 2 + s % 4, spectra [0.6, 1.8]): from A_w they summed to
# 155, from A_w #_{1/2} H_w to 96, and with the superlinear CG forcing to 84:
# every two-matrix ensemble takes none, every other two
MEAN_CERTIFIED_SEED0_ITERATIONS = [0, 2, 2, 2] * 14


def test_mean_certified_ensembles_take_their_pinned_iterations():
    got = []
    for s in range(56):
        dim, n = 2 + s % 7, 2 + s % 4
        stack = np.stack([random_spd(dim, (0.6, 1.8), 100 * s + j).a for j in range(n)])
        got.append(eval_mean_stack(MultiMeanSpec.karcher(Weights.uniform(n)), stack).iterations)
    assert got == MEAN_CERTIFIED_SEED0_ITERATIONS
    assert sum(got) == 84


@pytest.mark.parametrize("r", [1.5, 2.0])
def test_karcher_on_wide_spectra_returns_within_its_floor(r, monkeypatch):
    # 3.13's trials at master seed 7 and d = 2, drawn on [0.01, 100] instead
    # of [0.5, 2.2]: at A^1.5 and A^2 some members end above DT_TOL but
    # within their rounding floor sqrt(d) 16 eps kappa, where the residual is
    # rounding noise.  The damped gradient loop ran them to MAX_ITERS; a
    # rejected step that stays within the floor accepts the member
    draws = inequalities._spd_draws

    def wide(dim, spectrum, rngs, n):
        return draws(dim, (0.01, 100.0), rngs, n)

    monkeypatch.setattr(inequalities, "_spd_draws", wide)
    data = _gen_cell_data("3.13", 2, None, 40, 7)
    stack = spd_power(data.stack, r)
    res = eval_mean_stack(MultiMeanSpec.karcher(None), stack, data.weights, certify=False)
    assert res.iterations <= 20
    root_d = np.sqrt(2.0)
    floor = multimeans._rounding_floor(Spectral(stack)) * root_d + 16 * np.finfo(float).eps * root_d
    assert np.all(res.residual_dt <= np.maximum(DT_TOL, floor))


def test_deformed_mean_over_the_harmonic_base_is_the_harmonic_mean():
    # harmonic(1/2) deforms the harmonic mean to itself; the solve runs on the
    # inverses at p = 1 and at spread 1e6 returns within its bound of it
    As = [random_spd(4, (1.0, 1e6), 600 + j) for j in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = deformed_mean(MultiMeanSpec.harmonic(W3), harmonic(0.5), As)
    assert thompson(res.value.a, elementary_mean("harmonic", W3, As).a) <= res.residual_dt


def test_overflowing_newton_step_is_rejected():
    # at spread 1e8 the Newton direction of harmonic(1/10) over the arithmetic
    # mean overflows the step's exponential: the candidate is rejected, no
    # warning is raised, and the solve either returns or names its member
    As = [random_spd(4, (1.0, 1e8), 58020 + j) for j in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            res = deformed_mean(MultiMeanSpec.arithmetic(W3), harmonic(0.1), As)
        except errors.NoConvergence as exc:
            assert [m["what"] for m in exc.members] == ["deformed-mean"]
            assert np.all(np.isfinite(exc.last_iterate))
        else:
            assert np.isfinite(res.residual_dt)


@pytest.mark.parametrize("base, spread, seed", [
    (MultiMeanSpec.arithmetic(W3), 1e4, 54070),
    (MultiMeanSpec.power(W3, 0.5), 1e8, 58070),
    (MultiMeanSpec.karcher(W3), 1e12, 62010),
])
def test_chain_that_leaves_the_positive_reals_loses_its_member(base, spread, seed):
    # a candidate's tiny eigenvalue overflows harmonic(1/10)'s evaluator to
    # g = 0: the member is lost like a non-PD frame, so the step is rejected
    # without a warning and the solve returns or names its member
    As = [random_spd(4, (1.0, spread), seed + j) for j in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            res = deformed_mean(base, harmonic(0.1), As)
        except errors.NoConvergence as exc:
            assert [m["member"] for m in exc.members] == [0]
        else:
            assert np.isfinite(res.residual_dt)


def test_linalg_error_in_the_loop_names_the_live_members(monkeypatch):
    calls, step = [], multimeans._newton_step

    def failing(*args):
        calls.append(1)
        if len(calls) > 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return step(*args)

    monkeypatch.setattr(multimeans, "_newton_step", failing)
    with pytest.raises(errors.NoConvergence, match=r"failed \(Eigenvalues did not converge\) after 1 steps") as info:
        eval_mean(MultiMeanSpec.karcher(W3), ensemble(3, 3, 77), certify=False)
    assert [m["what"] for m in info.value.members] == ["Karcher"]
    assert np.all(np.isfinite(info.value.last_iterate))


@pytest.mark.parametrize(
    "spec, what",
    [
        (MultiMeanSpec.adjoint(MultiMeanSpec.karcher(W3)), "Karcher"),
        (MultiMeanSpec.power(W3, -0.5), "power-mean"),
        (MultiMeanSpec.adjoint(DEFORMED), "deformed-mean"),
    ],
    ids=["adjoint-karcher", "negative-power", "adjoint-deformed"],
)
def test_no_convergence_names_members_by_their_normal_form(spec, what, monkeypatch):
    monkeypatch.setattr(multimeans, "MAX_ITERS", 1)
    with pytest.raises(errors.NoConvergence) as info:
        eval_mean(spec, ensemble(3, 3, 77), certify=False)
    assert [m["what"] for m in info.value.members] == [what]


@pytest.mark.parametrize("t", [0.5, 0.25])
def test_no_convergence_hands_back_the_node_estimate(t, monkeypatch):
    # P_{-t}(A) solves P_t on the inverses; stopped after one step, it hands
    # back its own estimate of P_{-t}(A), the inverse of that of P_t(A^{-1})
    # on the same inverses, and so near the mean, not near its inverse
    stack = np.stack([a.a for a in ensemble(3, 3, 77)])
    spec = MultiMeanSpec.power(W3, -t)
    mean = eval_mean_stack(spec, stack).values
    monkeypatch.setattr(multimeans, "MAX_ITERS", 1)
    with pytest.raises(errors.NoConvergence) as neg:
        eval_mean_stack(spec, stack)
    with pytest.raises(errors.NoConvergence) as pos:
        eval_mean_stack(MultiMeanSpec.power(W3, t), Spectral(stack).raised(-1).a)
    x = neg.value.last_iterate
    np.testing.assert_allclose(x, np.linalg.inv(pos.value.last_iterate), rtol=0, atol=1e-13 * np.abs(x).max())
    assert thompson(x, mean) < 0.1 < thompson(np.linalg.inv(x), mean)


def test_damping_collapse_above_floor_raises(monkeypatch):
    # with a zero rounding floor, a member whose damping collapses at spread
    # 1e12 is stuck above its floor, so the loop stops and reports it
    monkeypatch.setattr(multimeans, "_rounding_floor", lambda a: 0.0)
    As = [random_spd(4, (1.0, 1e12), 1200 + j) for j in range(3)]
    with pytest.raises(errors.NoConvergence, match="Karcher") as info:
        eval_mean(MultiMeanSpec.karcher(W3), As, certify=False)
    assert np.isfinite(info.value.residual)
    assert info.value.last_iterate.shape == (4, 4)


@pytest.mark.parametrize("alpha", [0.5, -0.25, 1 / 64, None, "deformed"])
@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_scaled_inputs_keep_homogeneity(alpha, scale):
    # every solve starts at the weighted arithmetic mean, so a scalar factor
    # on the inputs (here near the ends of the float range) passes through
    spec = _ladder_spec(alpha)
    As = ensemble(4, 3, 900)
    res = eval_mean(spec, [validate_spd(scale * a.a) for a in As])
    assert res.residual_dt < DT_TOL
    np.testing.assert_allclose(res.value.a / scale, eval_mean(spec, As).value.a, rtol=1e-9, atol=0)


@pytest.mark.parametrize(
    "spec, certify",
    [
        (MultiMeanSpec.karcher(Weights((0.5, 0.5))), True),
        (MultiMeanSpec.karcher(Weights((0.5, 0.5))), False),
        (MultiMeanSpec.power(Weights((0.5, 0.5)), 0.5), True),
        (MultiMeanSpec.power(Weights((0.5, 0.5)), -0.5), True),
        (MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(Weights((0.5, 0.5))), harmonic(0.5)), True),
    ],
)
def test_mean_of_matrices_at_the_float_range_is_finite(spec, certify):
    # every spectral rebuild symmetrizes by halving before adding, so a mean
    # of two copies of a matrix near the float range is that matrix
    big = validate_spd(np.diag([1e308, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = eval_mean(spec, [big, big], certify=certify)
        assert np.all(np.isfinite(res.value.a))
        assert thompson_distance(res.value, big) <= res.residual_dt
    if spec.kind == "karcher" and certify:
        assert np.isfinite(res.enclosure_gap)


def test_singular_input_names_its_member_and_eigenvalue():
    # a typed error before the rounding floor could divide by zero
    good, bad = np.stack([np.eye(2)] * 2), np.stack([np.eye(2), np.diag([1.0, 0.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.DomainError, match=r"member 1 .* eigenvalue 0 <= 0"):
            eval_mean_stack(MultiMeanSpec.power(None, 0.5), np.stack([good, bad]), np.full((2, 2), 0.5))
        with pytest.raises(errors.DomainError, match=r"member 2 .* eigenvalue -0.5 <= 0"):
            multimeans._rounding_floor(Spectral(np.stack([good, good, -0.5 * bad])))


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
    g = karcher_mean(W3, As, certify=False).value
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
    # both enclosure ends come from the certified solve's one loop call, P_t
    # on [A, A^{-1}] beside the Karcher members; the gap must match the ends
    # solved one at a time, P_t(A) and P_{-t}(A)
    stack = np.stack(
        [np.stack([a.a for a in ensemble(3, 3, 900 + 10 * b, spectrum=(0.6, 1.8))]) for b in range(batch)]
    )
    w = W3.asarray()
    res = eval_mean_stack(MultiMeanSpec.karcher(W3), stack)
    t = KARCHER_ALPHA
    upper, _, _ = _eval_node(MultiMeanSpec.power(UNI3, t), stack, w)
    lower, _, _ = _eval_node(MultiMeanSpec.power(UNI3, -t), stack, w)
    s_upper = np.linalg.inv(np.linalg.cholesky(upper)).swapaxes(-1, -2)  # S S^T = upper^{-1}
    exact = np.zeros((3, batch))
    gap = _certify_karcher(res.values, upper, lower, s_upper, exact)
    assert gap.shape == (batch,)
    np.testing.assert_allclose(res.enclosure_gap, gap, rtol=0, atol=1e-9)
    with pytest.raises(errors.CertificationFailure):
        _certify_karcher(1.05 * res.values, upper, lower, s_upper, exact)


@pytest.mark.parametrize("spread, seed", [(1e10, 32900), (1e14, 31100)])
def test_certificate_allows_the_ends_their_error_bounds(spread, seed):
    # two inputs at wide spread, weights (0.3, 0.7): the mean and its lower
    # end return with bounds near 1e-6 (1e10) or 1e-2 (1e14), and the lower
    # margin is negative by less than those bounds allow.  Held to CHECK_TOL
    # alone, both raised CertificationFailure
    stack = np.stack([random_spd(4, (1.0, spread), seed + j).a for j in range(2)])
    res = eval_mean_stack(MultiMeanSpec.karcher(Weights((0.3, 0.7))), stack)
    assert np.isfinite(res.enclosure_gap)
    w, t = np.array([0.3, 0.7]), KARCHER_ALPHA
    x, _, bound, s = multimeans._geodesic_loop(w, (0.0, t, t), (), Spectral(stack), "K", (False, False, True))
    assert _certify_karcher(*x, s[1], bound) == res.enclosure_gap
    with pytest.raises(errors.CertificationFailure):
        _certify_karcher(*x, s[1], 0 * bound)
    # an end moved past the mean along its top eigenvector, by twice the
    # margin its bounds allow, still raises
    lam, v = np.linalg.eigh(x[0])
    allowed = CHECK_TOL + np.expm1(bound[0] + bound[1:].max())
    push = 4 * allowed * lam[-1] * np.outer(v[:, -1], v[:, -1])
    for ends in ((x[0] - push, x[2]), (x[1], x[0] + push)):
        with pytest.raises(errors.CertificationFailure):
            _certify_karcher(x[0], *ends, s[1], bound)


def test_forcing_is_floored_at_rounding_and_keeps_the_chains_rule():
    # eta = min(0.1, max(min(0.1, rho)^q, r / rho)): never below the
    # rounding term's share r / rho, at most 0.1, and at q = 1 (members with
    # a chain) min(0.1, rho) wherever the floor does not bind
    rho = np.geomspace(1e-16, 1e2, 200)
    for r in (16 * np.finfo(float).eps, 16 * np.finfo(float).eps * 64, 1e-9):
        for q in (1.0, 1.25):
            eta = multimeans._forcing(rho, np.full_like(rho, r), q)
            assert np.all(eta <= 0.1)
            assert np.all(eta >= np.minimum(0.1, r / rho))
            assert np.all(eta <= np.maximum(np.minimum(0.1, rho), r / rho))
        eta = multimeans._forcing(rho, np.full_like(rho, r), 1.0)
        free = r / rho <= np.minimum(0.1, rho)
        assert free.any() and not free.all()
        assert np.array_equal(eta[free], np.minimum(0.1, rho[free]))


def _certify_case(case):
    """``(stack, weights spec, weights_override)`` for test_certifying_does_not_change_the_solve."""
    if case == "bench-seed1-s22":  # mean_certified at seed 1, ensemble 22
        return np.stack([random_spd(3, (0.6, 1.8), 12200 + j).a for j in range(4)]), Weights.uniform(4), None
    batch = 1 if case == "batch-1" else 8
    stack = np.stack(
        [np.stack([a.a for a in ensemble(3, 3, 900 + 10 * b, spectrum=(0.6, 1.8))]) for b in range(batch)]
    )
    if case == "batch-1" or case == "batch-8":
        return stack, W3, None
    w = np.random.default_rng(5).dirichlet(np.ones(3), size=8)
    # "weights-one-ensemble": the weights alone carry the batch, over one ensemble
    return (stack if case == "weights" else stack[0]), W3, w


@pytest.mark.parametrize("case", ["batch-1", "batch-8", "weights", "weights-one-ensemble", "bench-seed1-s22"])
def test_certifying_does_not_change_the_solve(case):
    # the enclosure members run in the Karcher solve's loop call, but every
    # member freezes on its own and counts its own iterations, so the Karcher
    # members' values, iterations and bounds are those of the uncertified solve
    stack, weights, w = _certify_case(case)
    spec = MultiMeanSpec.karcher(weights)
    cert = eval_mean_stack(spec, stack, w)
    plain = eval_mean_stack(spec, stack, w, certify=False)
    assert np.array_equal(cert.values, plain.values)
    assert cert.iterations == plain.iterations
    assert np.array_equal(cert.residual_dt, plain.residual_dt)
    t = KARCHER_ALPHA
    upper, up_iters, _ = _eval_node(MultiMeanSpec.power(weights, t), stack, w)
    lower, lo_iters, _ = _eval_node(MultiMeanSpec.power(weights, -t), stack, w)
    # the gap is read from the loop's factor of P_t, so it agrees with the
    # Thompson distance of the two ends to rounding, not bit for bit
    np.testing.assert_allclose(cert.enclosure_gap, thompson(lower, upper), rtol=0, atol=1e-13)
    if case == "bench-seed1-s22":  # from A_w #_s H_w the mean and its enclosure ends take two Newton steps each
        assert (plain.iterations, max(up_iters.max(), lo_iters.max())) == (2, 2)


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


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + (str(s.alpha or "")))
def test_axioms(spec):
    rng = np.random.default_rng(17)
    As = ensemble(3, 3, 5000)
    base = eval_mean(spec, As, certify=False).value.a
    # normalization
    eyes = [validate_spd(np.eye(3))] * 3
    np.testing.assert_allclose(eval_mean(spec, eyes, certify=False).value.a, np.eye(3), atol=1e-10)
    # homogeneity
    scaled = [validate_spd(2.5 * a.a) for a in As]
    np.testing.assert_allclose(eval_mean(spec, scaled, certify=False).value.a, 2.5 * base, rtol=1e-9)
    # monotonicity under an upward perturbation
    bump = rng.standard_normal((3, 2))
    bigger = [validate_spd(As[0].a + 0.5 * bump @ bump.T)] + As[1:]
    up = eval_mean(spec, bigger, certify=False).value.a
    assert np.linalg.eigvalsh(up - base).min() >= -1e-9 * np.abs(base).max()
    # congruence invariance
    s = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    lhs = s.T @ base @ s
    rhs = eval_mean(spec, [validate_spd(s.T @ a.a @ s) for a in As], certify=False).value.a
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-8


@pytest.mark.parametrize("spec", SPECS[2:], ids=lambda s: s.kind + (str(s.alpha or "")))
def test_thompson_nonexpansive(spec):
    As = ensemble(3, 3, 6000)
    Bs = ensemble(3, 3, 7000)
    da = eval_mean(spec, As, certify=False).value
    db = eval_mean(spec, Bs, certify=False).value
    bound = max(thompson_distance(a, b) for a, b in zip(As, Bs))
    assert thompson_distance(da, db) <= bound + 1e-9


def test_harmonic_arithmetic_sandwich():
    As = ensemble(3, 3, 8000)
    harm = elementary_mean("harmonic", W3, As).a
    arit = elementary_mean("arithmetic", W3, As).a
    for spec in SPECS[2:6]:
        val = eval_mean(spec, As, certify=False).value.a
        assert np.linalg.eigvalsh(val - harm).min() >= -1e-9
        assert np.linalg.eigvalsh(arit - val).min() >= -1e-9


def test_degenerate_single_input():
    a = random_spd(3, (0.5, 2.0), 123)
    for spec in (
        MultiMeanSpec.arithmetic(Weights((1.0,))),
        MultiMeanSpec.karcher(Weights((1.0,))),
        MultiMeanSpec.power(Weights((1.0,)), 0.5),
    ):
        np.testing.assert_allclose(eval_mean(spec, [a], certify=False).value.a, a.a, atol=1e-13)
    # a certified Karcher mean of one matrix is that matrix, with nothing to solve or enclose
    res = karcher_mean(Weights((1.0,)), [a])
    assert np.array_equal(res.value.a, a.a)
    assert (res.iterations, res.residual_dt, res.enclosure_gap) == (0, 0.0, 0.0)


@pytest.mark.parametrize(
    "spec",
    [MultiMeanSpec.arithmetic(W3), MultiMeanSpec.adjoint(MultiMeanSpec.power(W3, 0.5)), DEFORMED],
    ids=["arithmetic", "adjoint", "deformed"],
)
def test_one_matrix_against_three_weights_is_an_arity_error(spec):
    # the weights of a node under an adjoint or a deformation are checked
    # before the one-matrix shortcut, as those of a weighted node are
    with pytest.raises(errors.ArityMismatch, match="3 weights for 1 matrices"):
        eval_mean(spec, [random_spd(3, (0.5, 2.0), 123)], certify=False)


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


def test_comparison_bound_bad_inputs_are_library_errors():
    As = ensemble(3, 3, 46)
    base = MultiMeanSpec.arithmetic(W3)
    with pytest.raises(errors.BadMode, match="'sideways'"):
        comparison_bound(base, geometric(0.5), As, As[0], "sideways")
    with pytest.raises(errors.DimensionMismatch, match="Y has dimension 2, inputs 3"):
        comparison_bound(base, geometric(0.5), As, validate_spd(np.eye(2)), "lower")


# ---------------------------------------------------------------- adjoints


def test_adjoint_of_arithmetic_is_harmonic_mean():
    As = ensemble(3, 3, 46)
    got = adjoint_eval(MultiMeanSpec.arithmetic(W3), As).value.a
    np.testing.assert_allclose(got, elementary_mean("harmonic", W3, As).a, atol=1e-11)


def test_adjoint_involution():
    # two adjoints flip the normal form's inversion back: the same solve, bit for bit
    As = ensemble(3, 3, 47)
    for spec in (MultiMeanSpec.power(W3, 0.5), MultiMeanSpec.karcher(W3), DEFORMED):
        twice = MultiMeanSpec.adjoint(MultiMeanSpec.adjoint(spec))
        a, b = (eval_mean(m, As, certify=False) for m in (spec, twice))
        assert np.array_equal(a.value.a, b.value.a), spec.kind
        assert (a.iterations, a.residual_dt) == (b.iterations, b.residual_dt), spec.kind


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


@pytest.mark.parametrize(
    "kind, fields",
    [
        ("karcher", {"weights": W3, "alpha": 0.3, "sigma": harmonic(0.5)}),
        ("arithmetic", {"weights": W3, "alpha": 0.5}),
        ("harmonic", {"inner": MultiMeanSpec.arithmetic(W3)}),
        ("power", {"weights": W3, "alpha": 0.5, "base": MultiMeanSpec.arithmetic(W3)}),
        ("deformed", {"weights": W3, "base": MultiMeanSpec.arithmetic(W3), "sigma": harmonic(0.5)}),
        ("adjoint", {"alpha": 0.5, "inner": MultiMeanSpec.arithmetic(W3)}),
    ],
)
def test_mean_spec_takes_only_the_fields_of_its_kind(kind, fields):
    with pytest.raises(errors.ConfigError, match=f"{kind} mean takes no"):
        MultiMeanSpec(kind, **fields)


def test_meanspec_json_roundtrip():
    specs = SPECS + [MultiMeanSpec.deformed(MultiMeanSpec.karcher(W3), geometric(0.5))]
    for spec in specs:
        back = meanspec_from_json(meanspec_to_json(spec))
        assert back == spec
    with pytest.raises(errors.UnknownKind):
        meanspec_from_json({"kind": "median"})


@pytest.mark.parametrize(
    "obj, key",
    [
        ({"kind": "karcher", "weights": [0.5, 0.5], "foo": 1}, "foo"),
        ({"kind": "adjoint", "inner": {"kind": "arithmetic", "weights": [1.0], "wieghts": [1.0]}}, "wieghts"),
    ],
)
def test_mean_spec_json_names_an_unknown_key(obj, key):
    # a key that is no field of a mean description is an error, at the top
    # and in a nested description, as in a campaign config
    with pytest.raises(errors.ConfigError, match=rf"unknown mean description keys: \['{key}'\]"):
        meanspec_from_json(obj)


def test_mean_result_serialization():
    a = random_spd(2, (0.5, 2.0), 1)
    res = MeanResult(value=a, iterations=3, residual_dt=1e-12, enclosure_gap=None)
    js = res.to_json()
    assert js["iterations"] == 3 and js["enclosure_gap"] is None
