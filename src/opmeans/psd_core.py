"""Dense real symmetric positive definite matrix kernel.

Everything in this module is a pure function of its arguments.  The array
helpers (``sym``, ``eigh_apply``, ``spd_power``, ``thompson`` ...) accept
stacked operands of shape ``(..., d, d)`` and broadcast over the leading
axes; the typed entry points (:func:`validate_spd`, :func:`matrix_function`,
:func:`thompson_distance` ...) work on single :class:`SpdMatrix` values and
carry the tolerance semantics.

Eigendecomposition is the single primitive behind every matrix function
here: the matrices are small (dimension of order tens) and symmetric
eigensolvers are backward stable, so there is no reason to special-case
exp/log/sqrt.  Every matrix function goes through a :class:`Spectral`,
which keeps the decomposition of its matrices, so several functions of them
cost one ``eigh``; a power of them, their inverse included, is a Spectral
raised from that decomposition (:meth:`Spectral.raised`), never decomposed
again.  The pair congruence ``a^{-1/2} b a^{-1/2}`` behind every
two-variable mean and the Thompson distance is formed in :func:`pair_frame`
alone.  Batched ``eigh`` is the only LAPACK primitive; the spectral rebuilds
``U f(L) U^T`` and the congruences ``s^T a s`` are batched matmul, several
times faster than ``einsum`` on stacks of small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

import numpy as np

from .errors import (
    ArityMismatch,
    BadInterval,
    BadSeed,
    DimensionMismatch,
    DomainError,
    EigenFailure,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
)

__all__ = [
    "SpdMatrix",
    "SpectralStats",
    "Relation",
    "LoewnerVerdict",
    "validate_spd",
    "matrix_function",
    "thompson_distance",
    "loewner_compare",
    "order_margin",
    "spectral_stats",
    "random_spd",
    "random_spd_stack",
    "congruence",
    "sym",
    "eigh_apply",
    "Spectral",
    "spd_power",
    "spd_inv",
    "spd_sqrt_pair",
    "pair_frame",
    "spd_log",
    "spd_exp",
    "thompson",
    "lambda_min",
    "op_norm",
    "spectral_ends",
    "matrix_to_json",
    "matrix_from_json",
    "spectral_from_json",
]

PD_TOL = 1e-12
SYM_TOL = 1e-8
CHECK_TOL = 1e-9  # an order claim holds when its order_margin is >= -CHECK_TOL; read at call time


# --------------------------------------------------------------------------
# stacked-array helpers
# --------------------------------------------------------------------------


def sym(a):
    """Symmetric part ``(a + a^T)/2`` over the trailing two axes, finite for finite ``a``."""
    h = 0.5 * a
    return h + np.swapaxes(h, -1, -2)


def _eigh(a):
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise EigenFailure(f"symmetric eigendecomposition failed: {exc}") from exc


def eigh_apply(a, fn):
    """Apply scalar ``fn`` to the spectrum of symmetric ``a``, batched.

    Returns ``U fn(L) U^T`` from ``a = U L U^T``; the result is exactly
    symmetric by construction.
    """
    return Spectral(a).apply(fn)


def _rebuild(v, fw):
    """``v diag(fw) v^T`` symmetrized, batched: the spectral rebuild."""
    return sym((v * fw[..., None, :]) @ np.swapaxes(v, -1, -2))


class Spectral:
    """Symmetric matrices ``a`` (batched) whose eigendecomposition ``eig`` is
    taken once, by the first function of them that needs it, and reused by
    every later one.

    A power of them (:meth:`raised`), a positive multiple (:meth:`scaled`)
    and a slice over their leading axes (``spectral[idx]``) are Spectrals
    made from that decomposition, so they are never decomposed again; each
    rebuilds its own ``a`` only if read.
    """

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    @classmethod
    def _known(cls, eig, make_a):
        """The Spectral whose decomposition ``eig`` is known; ``a`` is ``make_a()``."""
        out = cls.__new__(cls)
        out.eig, out._make_a = eig, make_a
        return out

    @cached_property
    def a(self):
        return self._make_a()

    @cached_property
    def eig(self):
        return _eigh(self.a)

    @property
    def shape(self):
        """The shape of ``a``, read from ``a`` or the eigenvectors, whichever
        is held: it neither rebuilds ``a`` nor decomposes it."""
        return (self.__dict__["a"] if "a" in self.__dict__ else self.eig[1]).shape

    def __getitem__(self, idx):
        """The Spectral of ``a[idx]``, ``idx`` indexing the leading axes."""
        w, v = self.eig
        return Spectral._known((w[idx], v[idx]), lambda: self.a[idx])

    def apply(self, fn):
        """:func:`eigh_apply` of ``a`` and ``fn``."""
        w, v = self.eig
        return _rebuild(v, _values(fn, w))

    def power(self, r):
        """:func:`spd_power` of ``a`` and ``r``; a whole power needs no positive eigenvalues."""
        if r == 1:
            return sym(self.a)
        return self.apply(_power_fn(r))

    def raised(self, r):
        """The Spectral of ``power(r)``: eigenvalues ``w**r`` and the same
        vectors, in ascending order.  Its ``a`` is ``power(r)`` itself,
        rebuilt from those eigenvalues."""
        w, v = self.eig
        wr = _values(_power_fn(r), w)
        make_a = partial(self.power, r) if r == 1 else partial(_rebuild, v, wr)
        if r < 0:
            wr, v = wr[..., ::-1], v[..., ::-1]
        return Spectral._known((wr, v), make_a)

    def scaled(self, c):
        """The Spectral of ``a / c`` for ``c > 0``, one number per matrix:
        eigenvalues ``w / c`` and the same vectors."""
        w, v = self.eig
        return Spectral._known((w / c[..., None], v), lambda: self.a / c[..., None, None])

    @property
    def norm(self):
        """Spectral norm of ``a``, from its eigenvalues."""
        return _norm(self.eig[0])

    def sqrt_pair(self):
        """:func:`spd_sqrt_pair` of ``a``."""
        w, v = self.eig
        s = np.sqrt(_positive(w, "square root"))
        return _rebuild(v, s), _rebuild(v, 1.0 / s)


def _values(fn, w):
    """``fn(w)``; DomainError naming the eigenvalues where it is not finite."""
    fw = np.asarray(fn(w), dtype=float)
    if not np.all(np.isfinite(fw)):
        bad = w[~np.isfinite(fw)]
        raise DomainError(f"function undefined at eigenvalue(s) {bad[:4]}")
    return fw


def _power_fn(r):
    """``w -> w**r``; a whole power is defined at every eigenvalue, any other
    needs them positive.  DomainError names the eigenvalues where it
    overflows, as ``w**-1`` does below about 5.6e-309."""
    whole = r >= 0 and float(r).is_integer()

    def power(w):
        with np.errstate(over="ignore"):
            wr = np.power(w if whole else _positive(w, f"power {r}"), r)
        if not np.all(np.isfinite(wr)):
            raise DomainError(f"power {r} overflows at eigenvalue(s) {w[~np.isfinite(wr)][:4]}")
        return wr

    return power


def _positive(w, what):
    """Eigenvalues ``w`` as they are; DomainError naming the smallest unless all are positive."""
    if np.any(w <= 0):
        raise DomainError(f"{what} of nonpositive eigenvalue {w.min()}")
    return w


def spd_power(a, r):
    """``a**r`` through the spectrum; ``a`` must be positive definite."""
    return Spectral(a).power(r)


def spd_inv(a):
    """``a^{-1}`` through the spectrum; DomainError names a nonpositive eigenvalue."""
    return eigh_apply(a, lambda w: 1.0 / _positive(w, "inverse"))


def spd_sqrt_pair(a):
    """Return ``(a**0.5, a**-0.5)`` from a single decomposition."""
    return Spectral(a).sqrt_pair()


def pair_frame(base, b):
    """``(a^{1/2}, Spectral(a^{-1/2} b a^{-1/2}))`` for ``base = Spectral(a)``:
    what every mean of the pair ``(a, b)`` and their Thompson distance are
    built from, batched.  The square-root pair comes from ``base``'s
    decomposition, so a base raised from one already taken costs none."""
    a_half, a_invh = base.sqrt_pair()
    return a_half, Spectral(sym(a_invh @ b @ a_invh))


def spd_log(a):
    return eigh_apply(a, lambda w: np.log(_positive(w, "log")))


def spd_exp(a):
    return eigh_apply(a, np.exp)


def lambda_min(a):
    """Smallest eigenvalue over the trailing two axes (batched)."""
    return np.linalg.eigvalsh(a)[..., 0]


def op_norm(a):
    """Spectral norm of symmetric ``a`` (batched)."""
    return _norm(np.linalg.eigvalsh(a))


def order_margin(lo, hi, lo_norm=None, hi_norm=None):
    """Margin of ``lo <= hi``, ``lambda_min(hi - lo) / (||lo|| + ||hi||)``, batched; pass the
    norms the caller already holds.  Halving them before adding is exact and cannot overflow."""
    lo_norm = op_norm(lo) if lo_norm is None else lo_norm
    hi_norm = op_norm(hi) if hi_norm is None else hi_norm
    return 0.5 * lambda_min(hi - lo) / (0.5 * lo_norm + 0.5 * hi_norm)


def spectral_ends(a):
    """``(lambda_min(a), op_norm(a))`` of symmetric ``a`` from one ``eigvalsh`` (batched)."""
    w = np.linalg.eigvalsh(a)
    return w[..., 0], _norm(w)


def _norm(w):
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def thompson(a, b):
    """Thompson distance ``max |log eig(a^{-1/2} b a^{-1/2})|`` (batched)."""
    w = np.linalg.eigvalsh(pair_frame(Spectral(a), b)[1].a)
    return _norm(np.log(_positive(w, "thompson distance")))


def congruence(s, a):
    """``s^T a s`` symmetrized, batched over leading axes."""
    st = np.swapaxes(s, -1, -2)
    return sym(st @ a @ s)


# --------------------------------------------------------------------------
# typed values
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpdMatrix:
    """A validated dense real symmetric positive definite matrix.

    Construct through :func:`validate_spd` (or :func:`random_spd`); the raw
    constructor trusts its input.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))
        self.entries.setflags(write=False)

    @property
    def a(self):
        """The underlying ndarray (read-only view)."""
        return self.entries

    def to_json(self):
        return matrix_to_json(self.entries)


@dataclass(frozen=True)
class SpectralStats:
    lambda_min: float
    op_norm: float
    condition_number: float


class Relation(Enum):
    LESS_EQUAL = "LessEqual"
    GREATER_EQUAL = "GreaterEqual"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of an order comparison.

    ``margin`` is the smallest eigenvalue of the difference taken in the
    relation's favorable direction; for EQUAL it is the worse of the two
    directions and for INCOMPARABLE the better one (both signed).
    """

    relation: Relation
    margin: float

    @property
    def holds_le(self):
        return self.relation in (Relation.LESS_EQUAL, Relation.EQUAL)

    @property
    def holds_ge(self):
        return self.relation in (Relation.GREATER_EQUAL, Relation.EQUAL)


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


def validate_spd(entries) -> SpdMatrix:
    """Validate and symmetrize a square array into an :class:`SpdMatrix`.

    Asymmetry up to ``SYM_TOL * max|entries|`` is folded away by
    averaging with the transpose; larger asymmetry is an error.  Positive
    definiteness is rejected when the smallest eigenvalue is at or below
    ``PD_TOL * spectral_scale``, and a spectrum past the floating-point range
    raises DomainError.  It is the one-matrix case of :func:`_validated`.
    """
    a = _square(np.asarray(entries, dtype=float))
    return SpdMatrix(dim=a.shape[0], entries=_validated(a[None]).a[0])


def _square(a):
    """``a``; NotSquare unless it is a nonempty square 2-d array."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise NotSquare(f"expected a nonempty square 2-d array, got shape {a.shape}")
    return a


def _validated(a) -> Spectral:
    """The :class:`Spectral` of the symmetric parts of the stack ``a`` (n, d, d),
    ``n, d >= 1``, with its decomposition held, once every matrix passes
    :func:`validate_spd`'s checks.

    The finiteness and asymmetry checks run over the whole stack, then one
    batched ``eigh`` gives the positive-definite verdict and the
    decomposition that a solve reads.  The first failing matrix raises the
    error :func:`validate_spd` gives it alone, so an earlier matrix's fault
    comes before a later one's.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # a matrix that is not finite fails first
        scale = np.abs(a).max(axis=(-2, -1))
        # halved, like the threshold, so it cannot overflow
        half_gap = np.abs(0.5 * a - 0.5 * np.swapaxes(a, -1, -2)).max(axis=(-2, -1))
    asym = half_gap > 0.5 * SYM_TOL * np.maximum(scale, 1e-300)
    bad = ~finite | asym
    if bad.any():
        k = int(np.argmax(bad))
        if k:
            _validated(a[:k])
        if not finite[k]:
            raise DomainError("matrix entries must be finite")
        raise NotSymmetric(
            f"asymmetry {2.0 * float(half_gap[k]):.3e} exceeds {SYM_TOL:.1e} * max|entries| = "
            f"{SYM_TOL * scale[k]:.3e}"
        )
    s = sym(a)
    w, v = _eigh(s)
    low, high = w[:, 0], w[:, -1]
    spectral_scale = np.maximum(np.abs(low), np.abs(high))
    bad = ~np.isfinite(w).all(axis=-1) | (low <= PD_TOL * spectral_scale)
    if bad.any():
        k = int(np.argmax(bad))
        if not np.all(np.isfinite(w[k])):
            raise DomainError(f"spectrum {low[k]:.6e} .. {high[k]:.6e} exceeds the floating-point range")
        raise NotPositiveDefinite(
            f"smallest eigenvalue {low[k]:.6e} is at or below {PD_TOL:.0e} * spectral scale "
            f"{spectral_scale[k]:.6e}"
        )
    return Spectral._known((w, v), lambda: s)


def matrix_function(A: SpdMatrix, f) -> np.ndarray:
    """``U f(L) U^T`` for ``A = U L U^T``; plain symmetric ndarray out.

    The result need not be positive definite (``f`` may be a log, say), so
    it is returned raw; re-validate before feeding it back into solvers.
    """
    return eigh_apply(A.a, f)


def thompson_distance(A: SpdMatrix, B: SpdMatrix) -> float:
    if A.dim != B.dim:
        raise DimensionMismatch(f"dimensions differ: {A.dim} vs {B.dim}")
    return float(thompson(A.a, B.a))


def loewner_compare(A: SpdMatrix, B: SpdMatrix) -> LoewnerVerdict:
    """Compare in the positive semidefinite order: ``A <= B`` holds when its
    :func:`order_margin` is at least ``-CHECK_TOL``, a verdict invariant under scaling."""
    if A.dim != B.dim:
        raise DimensionMismatch(f"dimensions differ: {A.dim} vs {B.dim}")
    na, nb = op_norm(A.a), op_norm(B.a)
    le = order_margin(A.a, B.a, na, nb) >= -CHECK_TOL
    ge = order_margin(B.a, A.a, nb, na) >= -CHECK_TOL
    lo, hi = float(lambda_min(B.a - A.a)), float(lambda_min(A.a - B.a))
    if le and ge:
        return LoewnerVerdict(Relation.EQUAL, min(lo, hi))
    if le:
        return LoewnerVerdict(Relation.LESS_EQUAL, lo)
    if ge:
        return LoewnerVerdict(Relation.GREATER_EQUAL, hi)
    return LoewnerVerdict(Relation.INCOMPARABLE, max(lo, hi))


def spectral_stats(A: SpdMatrix) -> SpectralStats:
    w = np.linalg.eigvalsh(A.a)
    return SpectralStats(
        lambda_min=float(w[0]),
        op_norm=float(w[-1]),
        condition_number=float(w[-1] / w[0]),
    )


def random_spd(dim: int, spectrum, seed: int) -> SpdMatrix:
    """Seeded random SPD matrix with the spectrum pinned to ``[m, M]``.

    For ``dim >= 2`` the extreme eigenvalues are exactly ``m`` and ``M`` and
    the rest are uniform in between, so hypotheses of the form
    ``m I <= A <= M I`` hold with equality at both ends rather than only in
    distribution.  ``dim == 1`` draws a single value in ``[m, M]``.  This is
    the one-seed case of :func:`random_spd_stack`.
    """
    return SpdMatrix(dim=dim, entries=random_spd_stack(dim, spectrum, [seed])[0])


def random_spd_stack(dim: int, spectrum, seeds) -> np.ndarray:
    """``random_spd(dim, spectrum, s).a`` for every seed ``s``, stacked.

    Each seed's draws come from :func:`_generators`, so they are those of
    ``np.random.default_rng(s)``; see :func:`_spd_draws`.
    """
    seeds = list(seeds)
    return _spd_draws(dim, spectrum, _generators(seeds), len(seeds))


def _spd_draws(dim: int, spectrum, rngs, n: int) -> np.ndarray:
    """``n`` matrices as :func:`random_spd` draws them, one from each of the
    next ``n`` generators of the iterator ``rngs`` (which it takes no more of).

    Each generator fills its row of uniforms and its normal block in place;
    one affine map ``m + (M - m) u`` then gives every eigenvalue, the bits of
    ``rng.uniform(m, M)``.  The orthogonal factors come from one batched QR
    (with the sign fix that makes them Haar and independent of LAPACK's sign
    conventions) and one rebuild, which give the same bits as the per-seed
    calls.
    """
    m, M = spectrum
    if not (0 < m < M):
        raise BadInterval(f"need 0 < m < M, got [{m}, {M}]")
    if dim < 1:
        raise BadInterval(f"dimension must be positive, got {dim}")
    u = np.empty((n, 1 if dim == 1 else dim - 2))
    g = np.empty((n, dim, dim))
    for k, rng in zip(range(n), rngs):
        rng.random(out=u[k])
        if dim > 1:
            rng.standard_normal(out=g[k])
    u = m + (M - m) * u
    if dim == 1:
        return u.reshape(-1, 1, 1)
    eigs = np.empty((n, dim))
    eigs[:, 0], eigs[:, 1:-1], eigs[:, -1] = m, u, M
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    return sym((q * eigs[:, None, :]) @ np.swapaxes(q, -1, -2))


# --------------------------------------------------------------------------
# seeding: default_rng(s) without a SeedSequence per seed
# --------------------------------------------------------------------------

# numpy.random.SeedSequence's hash and PCG64's seeding, which NEP 19 keeps
# fixed across numpy releases
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_consts(init, mult, calls):
    """``h_0 .. h_calls`` as a column, ``h_0 = init`` and ``h_{k+1} = h_k mult
    mod 2**32``: the k-th hashmix call xors with ``h_k`` and multiplies by
    ``h_{k+1}``."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h, dtype=np.uint32)[:, None]


def _pool_mix_consts(h):
    """For each source pool word, the constants of its three hashmix calls,
    one per other word in order, as columns over the pool (0 on its own row)."""
    out = []
    for src in range(4):
        xor, mul = np.zeros((4, 1), np.uint32), np.zeros((4, 1), np.uint32)
        dst, first = [j for j in range(4) if j != src], 4 + 3 * src
        xor[dst], mul[dst] = h[first : first + 3], h[first + 1 : first + 4]
        out.append((xor, mul))
    return out


_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 16)  # INIT_A, MULT_A: the pool
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # INIT_B, MULT_B: generate_state
_POOL_MIX = _pool_mix_consts(_HASH_A)


def _hashmix(v, xor, mul):
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _seed_array(seeds):
    for s in seeds:
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or not 0 <= int(s) < 2**64:
            raise BadSeed(f"seed {s!r} is not an integer in [0, 2**64)")
    return np.array([int(s) for s in seeds], dtype=np.uint64)


def _seed_state_words(seeds):
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed, as rows.

    numpy's loops in uint32 arithmetic, each step taken for the whole batch
    at once.  A seed below 2**64 is at most two 32-bit entropy words, fewer
    than the pool's four, and a missing word hashes as 0, so the pool is the
    hashmix of (low, high, 0, 0).  Each pool word in turn is then hashed and
    mixed into the three others (one step for all three, since none of them
    feeds another), and the output hash reads the pool twice round, pairing
    its 32-bit words little-endian.
    """
    s = _seed_array(seeds)
    pool = np.zeros((4, len(s)), dtype=np.uint32)
    pool[0], pool[1] = s & _MASK32, s >> 32
    pool = _hashmix(pool, _HASH_A[:4], _HASH_A[1:5])
    for src, (xor, mul) in enumerate(_POOL_MIX):
        mixed = _MIX_L * pool - _MIX_R * _hashmix(pool[src], xor, mul)
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    out = _hashmix(np.concatenate([pool, pool]), _HASH_B[:8], _HASH_B[1:]).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).T


def _generators(seeds):
    """One ``np.random.Generator``, reseeded before each seed of ``seeds``.

    Step k yields it in the state ``np.random.default_rng(seeds[k])`` starts
    in, so it draws the same bits; take each step's draws before the next.
    A seed must be an integer (Python or numpy, not bool) in ``[0, 2**64)``;
    :class:`BadSeed` names the first that is not.
    """
    words = _seed_state_words(seeds).tolist()
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for s_hi, s_lo, i_hi, i_lo in words:
        # PCG64's srandom: inc = 2 initseq + 1, one step from 0, add initstate, one step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


# --------------------------------------------------------------------------
# wire format
# --------------------------------------------------------------------------


def matrix_to_json(a) -> dict:
    a = np.asarray(a, dtype=float)
    return {"dim": int(a.shape[0]), "entries": [[float(x) for x in row] for row in a]}


def _entries_from_json(obj):
    """The entries of one JSON matrix as a (dim, dim) array, unvalidated."""
    try:
        dim = int(obj["dim"])
        a = np.asarray(obj["entries"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise NotSquare(f"matrix JSON must carry an integer 'dim' and numeric 'entries': {exc}") from exc
    if a.shape != (dim, dim):
        raise NotSquare(f"declared dim {dim} does not match entries shape {a.shape}")
    return _square(a)


def matrix_from_json(obj) -> SpdMatrix:
    return validate_spd(_entries_from_json(obj))


def _stack_of(mats):
    """The list ``mats`` of square arrays, one or more of one size, stacked to (n, d, d)."""
    if not mats:
        raise ArityMismatch("need at least one matrix")
    dim = len(mats[0])
    for a in mats:
        if len(a) != dim:
            raise DimensionMismatch(f"mixed dimensions {dim} and {len(a)}")
    return np.stack(mats)


def spectral_from_json(objs) -> Spectral:
    """The validated stack (n, d, d) of the JSON matrices ``objs``, a list, as a
    :class:`Spectral` with its decomposition held: each matrix gets the error
    :func:`matrix_from_json` gives it, from one ``eigh`` for them all."""
    return _validated(_stack_of([_entries_from_json(obj) for obj in objs]))
