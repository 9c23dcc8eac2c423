import re
import warnings

import numpy as np
import pytest

from opmeans import errors, psd_core
from opmeans.psd_core import (
    Relation,
    Spectral,
    congruence,
    eigh_apply,
    loewner_compare,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    op_norm,
    order_margin,
    random_spd,
    random_spd_stack,
    spectral_ends,
    spectral_stats,
    spd_inv,
    spd_power,
    spd_sqrt_pair,
    sym,
    thompson_distance,
    validate_spd,
)


def test_validate_identity():
    m = validate_spd(np.eye(2))
    assert m.dim == 2
    assert spectral_stats(m).lambda_min == pytest.approx(1.0)


def test_validate_rejects_indefinite():
    with pytest.raises(errors.NotPositiveDefinite):
        validate_spd(np.diag([1.0, -1.0]))


def test_validate_two_by_two_eigenvalues():
    # characteristic polynomial of [[2,1],[1,2]] is (l-2)^2 - 1 = 0, roots 1 and 3
    m = validate_spd([[2.0, 1.0], [1.0, 2.0]])
    s = spectral_stats(m)
    assert s.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert s.op_norm == pytest.approx(3.0, abs=1e-12)
    assert s.condition_number == pytest.approx(3.0, abs=1e-12)


def test_validate_shape_and_symmetry_errors():
    with pytest.raises(errors.NotSquare):
        validate_spd(np.ones((2, 3)))
    for empty in (np.zeros((0, 0)), []):
        with pytest.raises(errors.NotSquare, match="nonempty"):
            validate_spd(empty)
    with pytest.raises(errors.NotSymmetric):
        validate_spd([[1.0, 0.5], [0.0, 1.0]])
    # tiny asymmetry is folded away
    m = validate_spd([[1.0, 1e-12], [0.0, 1.0]])
    assert np.allclose(m.a, m.a.T)


def test_validate_asymmetry_test_is_overflow_safe():
    # the asymmetry and its threshold are both halved: entries near the float
    # range give NotSymmetric, not an overflow, and the threshold stays at
    # SYM_TOL * max|entries|
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.NotSymmetric):
            validate_spd([[1e308, 1e308], [-1e308, 1e308]])
        with pytest.raises(errors.NotSymmetric, match="asymmetry 2.000e-08"):
            validate_spd([[1.0, 2e-8], [0.0, 1.0]])
        assert validate_spd([[1.0, 0.99e-8], [0.0, 1.0]]).dim == 2


def test_validate_keeps_entries_near_the_float_range_finite():
    # symmetrizing halves before adding, so in-range entries cannot overflow:
    # the diagonal matrix is valid as given, and the singular one, whose
    # largest eigenvalue 2e308 is past the range, is a typed error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = np.diag([1e308, 1e308])
        np.testing.assert_array_equal(validate_spd(big).a, big)
        with pytest.raises(errors.DomainError, match="floating-point range"):
            validate_spd(np.full((2, 2), 1e308))


def test_validate_names_the_relative_threshold():
    with pytest.raises(errors.NotPositiveDefinite, match=r"1\.000000e-200 is at or below 1e-12 \* spectral scale 1\.0"):
        validate_spd(np.diag([1e-200, 1.0]))


def test_matrix_function_identity_and_diag():
    a = random_spd(4, (0.5, 2.0), 3)
    out = matrix_function(a, lambda x: x)
    assert np.abs(out - a.a).max() <= 1e-12 * spectral_stats(a).op_norm
    d = validate_spd(np.diag([1.0, 4.0]))
    assert np.allclose(matrix_function(d, np.sqrt), np.diag([1.0, 2.0]))


def test_matrix_function_square_matches_product():
    a = validate_spd([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(matrix_function(a, lambda x: x**2), a.a @ a.a, atol=1e-12)


def test_matrix_function_domain_error():
    a = validate_spd([[2.0, 1.0], [1.0, 2.0]])
    with np.errstate(invalid="ignore"), pytest.raises(errors.DomainError):
        matrix_function(a, lambda x: np.log(x - 2.5))


def test_matrix_function_composition():
    a = random_spd(5, (0.5, 3.0), 11)
    f, g = np.sqrt, lambda x: x**2 + 1
    inner = validate_spd(matrix_function(a, g))
    direct = matrix_function(a, lambda x: f(g(x)))
    rel = np.abs(matrix_function(inner, f) - direct).max() / np.abs(direct).max()
    assert rel < 1e-9


def test_thompson_basics():
    i2 = validate_spd(np.eye(2))
    two = validate_spd(2 * np.eye(2))
    assert thompson_distance(i2, two) == pytest.approx(np.log(2.0), abs=1e-12)
    a = random_spd(3, (0.5, 2.0), 5)
    assert thompson_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    d1 = validate_spd(np.diag([1.0, 2.0]))
    d2 = validate_spd(np.diag([3.0, 1.0]))
    # eigenvalues of d1^{-1} d2 are 3 and 1/2; the larger log wins
    assert thompson_distance(d1, d2) == pytest.approx(np.log(3.0), abs=1e-12)


def test_thompson_symmetry_triangle_congruence():
    rng = np.random.default_rng(0)
    for seed in range(5):
        a = random_spd(4, (0.5, 2.0), 100 + seed)
        b = random_spd(4, (0.5, 2.0), 200 + seed)
        c = random_spd(4, (0.5, 2.0), 300 + seed)
        dab = thompson_distance(a, b)
        assert dab == pytest.approx(thompson_distance(b, a), abs=1e-10)
        assert dab <= thompson_distance(a, c) + thompson_distance(c, b) + 1e-10
        s = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        ca = validate_spd(congruence(s, a.a))
        cb = validate_spd(congruence(s, b.a))
        assert thompson_distance(ca, cb) == pytest.approx(dab, abs=1e-9 * (1 + dab))


def test_loewner_compare_cases():
    i2 = validate_spd(np.eye(2))
    two = validate_spd(2 * np.eye(2))
    v = loewner_compare(i2, two)
    assert v.relation is Relation.LESS_EQUAL and v.margin == pytest.approx(1.0)
    v = loewner_compare(validate_spd(np.diag([2.0, 1.0])), validate_spd(np.diag([1.0, 2.0])))
    assert v.relation is Relation.INCOMPARABLE
    a = random_spd(3, (0.5, 2.0), 8)
    v = loewner_compare(a, a)
    assert v.relation is Relation.EQUAL and v.margin == pytest.approx(0.0, abs=1e-14)
    # decided by order_margin against CHECK_TOL = 1e-9, which this gap is within
    v = loewner_compare(validate_spd((1 + 1e-9) * np.eye(2)), validate_spd(np.eye(2)))
    assert v.relation is Relation.EQUAL and v.margin == pytest.approx(-1e-9, rel=1e-6)


def test_loewner_swap_consistency():
    for seed in range(8):
        a = random_spd(3, (0.5, 2.0), seed)
        b = random_spd(3, (0.5, 2.0), seed + 50)
        ab = loewner_compare(a, b)
        ba = loewner_compare(b, a)
        assert ab.holds_le == ba.holds_ge
        assert ab.holds_ge == ba.holds_le


def test_order_margin_is_the_normalized_smallest_eigenvalue():
    lo = random_spd_stack(3, (0.5, 2.0), range(4))
    hi = random_spd_stack(3, (0.5, 2.0), range(10, 14))
    rule = np.linalg.eigvalsh(hi - lo)[:, 0] / (op_norm(lo) + op_norm(hi))
    np.testing.assert_array_equal(order_margin(lo, hi), rule)
    np.testing.assert_array_equal(order_margin(lo, hi, op_norm(lo), op_norm(hi)), rule)
    # the norms are halved before adding, so a sum past the float range is no inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert order_margin(1e308 * np.eye(2), 1.5e308 * np.eye(2)) == pytest.approx(0.2, rel=1e-15)


def test_sym_halves_before_adding():
    a = np.random.default_rng(5).standard_normal((4, 3, 3))
    np.testing.assert_array_equal(sym(a), 0.5 * (a + np.swapaxes(a, -1, -2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        np.testing.assert_array_equal(sym(np.full((2, 2), 1e308)), np.full((2, 2), 1e308))


def test_spectral_stats_diag():
    s = spectral_stats(validate_spd(np.diag([1.0, 4.0])))
    assert (s.lambda_min, s.op_norm, s.condition_number) == (1.0, 4.0, 4.0)


def test_random_spd_contract():
    with pytest.raises(errors.BadInterval):
        random_spd(3, (2.0, 1.0), 0)
    one = random_spd(1, (2.0, 3.0), 7)
    assert 2.0 <= one.a[0, 0] <= 3.0
    a1 = random_spd(3, (1.0, 4.0), 7)
    a2 = random_spd(3, (1.0, 4.0), 7)
    np.testing.assert_array_equal(a1.a, a2.a)
    for dim in (2, 3, 6):
        m = random_spd(dim, (0.7, 2.5), 13 + dim)
        validate_spd(m.a)
        s = spectral_stats(m)
        assert s.lambda_min == pytest.approx(0.7, abs=1e-10)
        assert s.op_norm == pytest.approx(2.5, abs=1e-10)


def _random_spd_loop(dim, spectrum, seeds):
    # the per-seed draw: spectrum pinned at both ends, then a Haar rotation
    # from QR with the sign fix
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        if dim == 1:
            out.append([[rng.uniform(*spectrum)]])
            continue
        eigs = np.concatenate([[spectrum[0]], rng.uniform(*spectrum, size=dim - 2), [spectrum[1]]])
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))
        out.append(sym((q * eigs) @ q.T))
    return np.array(out)


# the ends of the seed range and of its one- and two-word halves, as Python
# and numpy integers
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
EDGE_SEEDS += [np.uint64(2**64 - 1), np.int64(7), np.uint32(2**32 - 1)]


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
def test_random_spd_stack_matches_per_seed_draws(dim):
    seeds = [int(s) for s in np.random.default_rng(dim).integers(0, 2**63, 50)] + EDGE_SEEDS
    stack = random_spd_stack(dim, (0.5, 2.2), seeds)
    assert np.array_equal(stack, _random_spd_loop(dim, (0.5, 2.2), seeds))
    assert np.array_equal(random_spd(dim, (0.5, 2.2), seeds[3]).a, stack[3])
    # the campaign's other seeded draws: ensemble weights and the cell's constants
    draws = [(rng.uniform(0.2, 1.0, dim), rng.uniform(), rng.integers(3)) for rng in psd_core._generators(seeds)]
    for s, (w, u, k) in zip(seeds, draws):
        ref = np.random.default_rng(s)
        assert np.array_equal(w, ref.uniform(0.2, 1.0, dim)) and u == ref.uniform() and k == ref.integers(3)
    with pytest.raises(errors.BadInterval):
        random_spd_stack(dim, (1.0, 1.0), seeds)


@pytest.mark.parametrize(
    "seed", [-1, 2**64, True, np.bool_(False), 1.0, np.float64(2.0), "3", None], ids=repr
)
def test_random_spd_stack_names_a_bad_seed(seed):
    # negative, too large, boolean or not an integer: a typed error naming it
    with pytest.raises(errors.BadSeed, match=re.escape(repr(seed))):
        random_spd_stack(3, (0.5, 2.2), [5, seed])
    with pytest.raises(errors.BadSeed, match=re.escape(repr(seed))):
        random_spd(1, (0.5, 2.2), seed)


def test_arithmetic_mean_nonexpansive_in_thompson():
    # seed fact behind the contraction estimates: averaging never expands
    rng = np.random.default_rng(42)
    for trial in range(10):
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        As = [random_spd(d, (0.5, 2.0), 1000 + 10 * trial + j) for j in range(n)]
        Bs = [random_spd(d, (0.5, 2.0), 2000 + 10 * trial + j) for j in range(n)]
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        ma = validate_spd(sum(wi * a.a for wi, a in zip(w, As)))
        mb = validate_spd(sum(wi * b.a for wi, b in zip(w, Bs)))
        bound = max(thompson_distance(a, b) for a, b in zip(As, Bs))
        assert thompson_distance(ma, mb) <= bound + 1e-9


def test_power_one_is_exact():
    a = random_spd(4, (0.5, 2.0), 77)
    np.testing.assert_allclose(matrix_function(a, lambda x: x**1.0), a.a, atol=1e-13)


def test_spd_inv_names_a_nonpositive_eigenvalue():
    # a typed error, raised before the division could warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.DomainError, match="nonpositive eigenvalue 0.0"):
            spd_inv(np.diag([1.0, 0.0]))
        with pytest.raises(errors.DomainError, match="nonpositive eigenvalue -2.0"):
            spd_inv(np.diag([-2.0, 3.0]))


def test_positive_definite_functions_name_a_nonpositive_eigenvalue():
    # one check for every function that needs positive eigenvalues
    indefinite = np.diag([-2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (
            lambda: spd_sqrt_pair(indefinite),
            lambda: psd_core.spd_log(indefinite),
            lambda: spd_power(indefinite, -0.5),
            lambda: spd_power(indefinite, 0.5),
            lambda: psd_core.thompson(np.eye(2), indefinite),
            lambda: psd_core.thompson(indefinite, np.eye(2)),
        ):
            with pytest.raises(errors.DomainError, match="nonpositive eigenvalue -2.0"):
                call()
    # a whole power is defined at every eigenvalue
    np.testing.assert_allclose(spd_power(indefinite, 2.0), np.diag([4.0, 9.0]))


def test_pair_frame_is_the_pair_congruence():
    a = np.stack([random_spd(3, (0.5, 2.0), 70 + k).a for k in range(4)])
    b = np.stack([random_spd(3, (0.5, 2.0), 80 + k).a for k in range(4)])
    a_half, w = psd_core.pair_frame(Spectral(a), b)
    half, inv_half = spd_sqrt_pair(a)
    np.testing.assert_array_equal(a_half, half)
    np.testing.assert_array_equal(w.a, sym(inv_half @ b @ inv_half))
    lw = np.log(np.linalg.eigvalsh(w.a))
    np.testing.assert_array_equal(psd_core.thompson(a, b), np.maximum(-lw[:, 0], lw[:, -1]))


def test_spectral_powers_share_one_decomposition(monkeypatch):
    # every power of a Spectral is spd_power's, bit for bit, from one eigh
    a = np.stack([random_spd(3, (0.5, 2.0), 40 + k).a for k in range(4)])
    calls = []
    inner = psd_core._eigh
    monkeypatch.setattr(psd_core, "_eigh", lambda x: calls.append(1) or inner(x))
    spectral = Spectral(a)
    for r in (1.0, 0.5, 2.0, -1.5, 3.0):
        np.testing.assert_array_equal(spectral.power(r), spd_power(a, r))
    assert len(calls) == 1 + 4  # the Spectral's own, and spd_power's for each r != 1


def test_spectral_ends_match_lambda_min_and_norm():
    a = np.stack([random_spd(3, (0.5, 2.0), 60 + k).a for k in range(3)]) - 1.0 * np.eye(3)
    lam, nrm = spectral_ends(a)
    np.testing.assert_array_equal(lam, psd_core.lambda_min(a))
    np.testing.assert_array_equal(nrm, psd_core.op_norm(a))


def test_power_that_overflows_is_a_typed_domain_error():
    # the inverse of an eigenvalue below about 5.6e-309 is past the float
    # range: a DomainError that says so, not a warning and "undefined"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.DomainError, match=r"power -1 overflows at eigenvalue\(s\) \[1\.e-310 1\.e-309\]"):
            Spectral(np.diag([1e-310, 1e-309])).raised(-1)
        with pytest.raises(errors.DomainError, match="power 2 overflows"):
            spd_power(np.diag([1e200, 1.0]), 2)
        np.testing.assert_allclose(Spectral(np.diag([1e-300, 1.0])).raised(-1).eig[0], [1.0, 1e300], rtol=1e-15)


def test_stacked_validation_names_the_first_faulty_matrix():
    # one pass over the stack, but the error is the first faulty matrix's,
    # whichever check finds each fault: a matrix that is not positive
    # definite at index 1 comes before an asymmetric one at index 2
    good, indefinite, asym = np.eye(2), np.diag([1.0, -1.0]), np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(errors.NotPositiveDefinite):
        psd_core.spectral_from_json([matrix_to_json(a) for a in (good, indefinite, asym)])
    with pytest.raises(errors.NotSymmetric):
        psd_core.spectral_from_json([matrix_to_json(a) for a in (good, asym, indefinite)])


def test_stacked_validation_holds_the_decomposition_of_the_symmetric_parts():
    mats = [random_spd(3, (0.5, 2.0), 30 + k).a for k in range(3)]
    mats[1] = mats[1] + np.triu(np.full((3, 3), 1e-10), 1)  # asymmetry folded away
    stack = psd_core.spectral_from_json([matrix_to_json(a) for a in mats])
    want = np.stack([validate_spd(a).a for a in mats])
    np.testing.assert_array_equal(stack.a, want)
    w, v = np.linalg.eigh(want)
    np.testing.assert_array_equal(stack.eig[0], w)
    np.testing.assert_array_equal(stack.eig[1], v)


def test_matrix_json_roundtrip():
    a = random_spd(3, (0.5, 2.0), 5)
    back = matrix_from_json(matrix_to_json(a.a))
    np.testing.assert_allclose(back.a, a.a, atol=1e-15)
    with pytest.raises(errors.NotSquare):
        matrix_from_json({"dim": 3, "entries": [[1.0, 0.0], [0.0, 1.0]]})


# ------------------------------------------------------------------ kernels


def _spd_batch(shape, d, seed):
    """Seeded SPD matrices of shape ``shape + (d, d)``, spectra in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal(shape + (d, d)))
    lam = rng.uniform(0.1, 10.0, shape + (d,))
    return sym((q * lam[..., None, :]) @ np.swapaxes(q, -1, -2))


def _rel_err(x, ref):
    """Largest relative Frobenius-norm error over the batch."""
    err = np.linalg.norm(x - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
    return float(np.max(err))


def _einsum_rebuild(v, fw):
    return sym(np.einsum("...ij,...j,...kj->...ik", v, fw, v))


@pytest.mark.parametrize("shape", [(200, 3), ()], ids=["batch", "single"])
@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_matmul_kernels_match_einsum_formulas(shape, d):
    a = _spd_batch(shape, d, 1000 + d)
    w, v = np.linalg.eigh(a)
    for fn in (np.log, np.sqrt, lambda t: t**-0.3):
        assert _rel_err(eigh_apply(a, fn), _einsum_rebuild(v, fn(w))) < 1e-13

    half, inv_half = spd_sqrt_pair(a)
    assert _rel_err(half, _einsum_rebuild(v, np.sqrt(w))) < 1e-13
    assert _rel_err(inv_half, _einsum_rebuild(v, 1.0 / np.sqrt(w))) < 1e-13
    assert _rel_err(half @ half, a) < 1e-12
    assert _rel_err(half @ inv_half, np.broadcast_to(np.eye(d), a.shape)) < 1e-12

    b = _spd_batch(shape, d, 2000 + d)
    expect = sym(np.einsum("...ji,...jk,...kl->...il", inv_half, b, inv_half))
    assert _rel_err(congruence(inv_half, b), expect) < 1e-13
    if shape:
        # one congruence broadcast over the ensemble axis, as the solvers use it
        s = inv_half[:, 0]
        expect = sym(np.einsum("...ji,...njk,...kl->...nil", s, b, s))
        assert _rel_err(congruence(s[:, None, :, :], b), expect) < 1e-13
