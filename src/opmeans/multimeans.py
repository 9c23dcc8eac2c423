"""n-variable matrix means: elementary, deformed, power, Karcher, adjoint.

The deformed mean of a base mean ``M`` by a two-variable mean ``sigma`` is
the unique fixed point of ``X = M(X sigma A_1, ..., X sigma A_n)`` (Lim and
Palfia, *Matrix power means and the Karcher mean*, JFA 262 (2012)).  Power
means are the deformations of the arithmetic mean by ``t^p``, and the
Karcher mean is their limit.  Every iterative mean compiles to one residual
(:func:`_residual`): in the frame ``B_i = X^{-1/2} A_i X^{-1/2}`` of its
value it solves ``sum_i w_i phi_p(g(B_i)) = 0``, with ``phi_p(v) = (v^p -
1) / p`` (``log v`` at ``p = 0``) and ``g`` a chain of representing
functions, empty for power and Karcher means.  One damped Riemannian Newton
iteration on a triangular factor of ``X^{-1}`` (:func:`_geodesic_loop`)
solves every kind: the direction solves the residual's linearization, a
Daleckii-Krein kernel on the spectra the frame already holds, by
matrix-free conjugate gradients (:func:`_frame`), and the solve stops on a
true Thompson error bound that also covers the rounding of its own
evaluation.  A Karcher solve is certified by the power-mean enclosure
``P_{-t} <= G <= P_t``, whose ends solve a different equation in the same
loop call: the loop takes one exponent per member.

All solvers run on stacked operands of shape ``(..., n, d, d)`` and
broadcast over the leading axes, which is what makes large randomized
verification campaigns cheap; the typed API wraps the single-ensemble case.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AlphaZero,
    ArityMismatch,
    BadMode,
    CertificationFailure,
    ConfigError,
    DimensionMismatch,
    DomainError,
    HypothesisFails,
    InvalidWeights,
    MissingParameter,
    NoConvergence,
    SigmaIsLeftTrivial,
    UnknownKind,
)
from .meanfns import RepFnSpec, rep_elasticity, rep_eval, rep_transform, repfn_from_json, repfn_to_json
from .psd_core import (
    CHECK_TOL,
    LoewnerVerdict,
    Spectral,
    SpdMatrix,
    _positive,
    _rebuild,
    _stack_of,
    congruence,
    loewner_compare,
    pair_frame,
    spd_inv,
    spectral_ends,
    sym,
)

__all__ = [
    "Weights",
    "MultiMeanSpec",
    "MeanResult",
    "elementary_mean",
    "deformed_mean",
    "comparison_bound",
    "power_mean",
    "karcher_mean",
    "adjoint_eval",
    "eval_mean",
    "eval_mean_stack",
    "meanspec_to_json",
    "meanspec_from_json",
]

# the fields each mean kind takes; a sub-description (base, sigma, inner) is required
_MEAN_FIELDS = {"arithmetic": ("weights",), "harmonic": ("weights",), "karcher": ("weights",),
                "power": ("weights", "alpha"), "deformed": ("base", "sigma"), "adjoint": ("inner",)}
KARCHER_ALPHA = 1.0 / 64.0  # exponent t of the enclosure P_{-t} <= G <= P_t that certifies a Karcher solve
MAX_ITERS = 20_000  # cap on the steps of one geodesic solve
DT_TOL = 1e-11  # a solve stops once its Thompson error bound is below this


@dataclass(frozen=True)
class Weights:
    values: tuple

    def __post_init__(self):
        try:
            if any(isinstance(v, (bool, np.bool_, str)) for v in self.values):  # float() reads them as numbers
                raise TypeError(f"got {self.values!r}")
            vals = tuple(float(v) for v in self.values)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidWeights(f"weights must be a list of numbers: {exc}") from exc
        object.__setattr__(self, "values", vals)
        arr = np.array(vals)
        if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise InvalidWeights("weights must be a nonempty list of finite nonnegative reals")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise InvalidWeights(f"weights must sum to 1, got {arr.sum()!r}")

    @classmethod
    def uniform(cls, n: int) -> "Weights":
        return cls(tuple(1.0 / n for _ in range(n)))

    def asarray(self):
        return np.array(self.values)


@dataclass(frozen=True)
class MultiMeanSpec:
    """Description of an n-variable mean; build through the classmethods."""

    kind: str
    weights: Optional[Weights] = None
    alpha: Optional[float] = None
    base: Optional["MultiMeanSpec"] = None
    sigma: Optional[RepFnSpec] = None
    inner: Optional["MultiMeanSpec"] = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _MEAN_FIELDS:
            raise UnknownKind(f"unknown mean kind {self.kind!r}")
        if self.kind == "power":
            if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
                raise MissingParameter(f"power mean needs a numeric alpha, got {self.alpha!r}")
            if self.alpha == 0:
                raise AlphaZero("power mean exponent must be nonzero")
            if not -1 <= self.alpha <= 1:
                raise AlphaZero(f"power mean exponent must lie in [-1, 1], got {self.alpha}")
        takes = _MEAN_FIELDS[self.kind]
        missing = [part for part in takes if part not in ("weights", "alpha") and getattr(self, part) is None]
        if missing:
            raise MissingParameter(f"{self.kind} mean needs {' and '.join(missing)}")
        stray = [f.name for f in fields(self)
                 if f.name not in ("kind", *takes) and getattr(self, f.name) is not None]
        if stray:
            raise ConfigError(f"{self.kind} mean takes no {' or '.join(stray)}")
        if self.kind == "deformed" and self.sigma.is_left_trivial:
            raise SigmaIsLeftTrivial("cannot deform by the left trivial mean")

    @classmethod
    def arithmetic(cls, w: Weights) -> "MultiMeanSpec":
        return cls("arithmetic", weights=w)

    @classmethod
    def harmonic(cls, w: Weights) -> "MultiMeanSpec":
        return cls("harmonic", weights=w)

    @classmethod
    def deformed(cls, base: "MultiMeanSpec", sigma: RepFnSpec) -> "MultiMeanSpec":
        return cls("deformed", base=base, sigma=sigma)

    @classmethod
    def power(cls, w: Weights, alpha: float) -> "MultiMeanSpec":
        return cls("power", weights=w, alpha=float(alpha))

    @classmethod
    def karcher(cls, w: Weights) -> "MultiMeanSpec":
        return cls("karcher", weights=w)

    @classmethod
    def adjoint(cls, inner: "MultiMeanSpec") -> "MultiMeanSpec":
        return cls("adjoint", inner=inner)


@dataclass(frozen=True)
class MeanResult:
    """``residual_dt`` bounds the Thompson distance from ``value`` to the mean
    (0 for closed forms).  It includes the rounding of its own evaluation,
    ``16 eps / p`` (``p >= 0``, see :func:`_residual`) and ``16 eps sqrt d``
    at ``p = 0``, over the elasticity bound of a deformed mean's chain (see
    :func:`_frame`).  ``iterations`` counts the Newton steps of the geodesic
    loop, accepted or not, of the mean's own members (the largest over a
    batch), not of a certified Karcher solve's enclosure ends."""

    value: SpdMatrix
    iterations: int
    residual_dt: float
    enclosure_gap: Optional[float] = None

    @classmethod
    def of(cls, result: "StackResult") -> "MeanResult":
        """The result of a one-ensemble :func:`eval_mean_stack` solve."""
        gap = result.enclosure_gap
        return cls(
            value=SpdMatrix(dim=result.values.shape[-1], entries=result.values),
            iterations=int(result.iterations),
            residual_dt=float(np.max(result.residual_dt)),
            enclosure_gap=None if gap is None else float(np.max(gap)),
        )

    def to_json(self):
        return {
            "value": self.value.to_json(),
            "iterations": self.iterations,
            "residual_dt": self.residual_dt,
            "enclosure_gap": self.enclosure_gap,
        }


@dataclass(frozen=True)
class StackResult:
    """Batched outcome over the leading axes, as :class:`MeanResult`; ``residual_dt`` per member."""

    values: np.ndarray
    iterations: int
    residual_dt: np.ndarray
    enclosure_gap: Optional[np.ndarray] = None


# --------------------------------------------------------------------------
# stacked engine
# --------------------------------------------------------------------------


def _spec_weights(spec: MultiMeanSpec) -> Weights:
    """The weights of ``spec``'s weighted node, found down its bases and inner means."""
    node = spec
    while node.weights is None:
        node = node.base or node.inner
        if node is None:
            raise UnknownKind("mean description carries no weights")
    return node.weights


def _node_weights(spec: MultiMeanSpec, w_over, n: int):
    if w_over is None:
        try:
            w_over = _spec_weights(spec).values
        except UnknownKind:
            raise InvalidWeights(f"mean kind {spec.kind!r} needs weights") from None
    w = np.asarray(w_over, dtype=float)
    if w.shape[-1] != n:
        raise ArityMismatch(f"{w.shape[-1]} weights for {n} matrices")
    return w


def _weighted_sum(w, stack):
    return np.einsum("...n,...nij->...ij", w, stack)


def _eval_node(spec: MultiMeanSpec, stack, w_over=None):
    """Evaluate a mean on ``stack`` of shape (..., n, d, d), an array or the :class:`Spectral` of one.

    Returns ``(values, iterations, bound)``, the count (0 for a closed form)
    and the Thompson error bound of :class:`MeanResult` per member, through
    the normal form of :func:`_residual`; the bound is inversion invariant.
    A loop solve reads its inputs' decomposition, the Spectral's own or one
    taken of a plain array, for its rounding floor, the inverses of an
    inverted node and those its start's harmonic mean sums, and hands back
    each node's own value (:func:`_geodesic_loop`), so the solved mean is
    not decomposed again; only the closed-form harmonic mean inverts its
    weighted sum.
    """
    stack = stack if isinstance(stack, Spectral) else Spectral(stack)  # decomposed only when read
    n = stack.shape[-3]
    w = _node_weights(spec, w_over, n)
    zeros = np.zeros(stack.shape[:-3])
    if n == 1:
        # forced by normalization plus congruence invariance
        return stack.a[..., 0, :, :], 0, zeros
    inv, p, fs = _residual(spec)
    if p == 1 and not fs:
        vals = _weighted_sum(w, (stack.raised(-1) if inv else stack).a)
        return (spd_inv(vals) if inv else vals), 0, zeros
    what = "deformed-mean" if fs else "Karcher" if p == 0 else "power-mean"
    return _geodesic_loop(w, p, fs, stack, what, inv)[:3]


def _residual(spec: MultiMeanSpec):
    """``(inv, p, fs)``, ``p >= 0``: the mean (of the inverses, inverted if ``inv``)
    solves ``sum_i w_i phi_p(g(B_i)) = 0`` in the frame of its value.

    Here ``B_i = X^{-1/2} A_i X^{-1/2}``, ``phi_p(v) = (v^p - 1) / p``
    (``log v`` at ``p = 0``) and ``g`` applies the representing functions
    ``fs`` first to last.  ``P_p(C_1, ..., C_n) = I`` exactly when ``sum_i
    w_i phi_p(C_i) = 0``, which covers the arithmetic (``p = 1``), power and
    Karcher (``0``) means; as ``P_{-p}(A) = P_p(A^{-1})^{-1}``, the harmonic
    mean and ``P_{-p}`` set ``inv``, and an adjoint flips it.  By congruence
    invariance ``deformed(base, sigma)`` is fixed at ``X`` exactly when
    ``base(sigma(B_1), ...) = I``, so ``sigma`` goes in front of its base's
    chain; over an inverted base its adjoint ``sigma*(t) = 1 / sigma(1 / t)``
    does, as ``sigma(B)^{-1} = sigma*(B^{-1})``.
    """
    if spec.kind == "adjoint":
        inv, p, fs = _residual(spec.inner)
        return not inv, p, fs
    if spec.kind == "deformed":
        inv, p, fs = _residual(spec.base)
        return inv, p, (rep_transform(spec.sigma, "adjoint") if inv else spec.sigma, *fs)
    p = {"arithmetic": 1.0, "harmonic": -1.0, "karcher": 0.0}.get(spec.kind, spec.alpha)
    return p < 0, abs(p), ()


_EPS = np.finfo(float).eps


def _rounding_floor(a):
    """``16 eps kappa`` per member of the :class:`Spectral` ``a`` (..., n, d, d), ``kappa`` the spectral spread of its inputs.

    The eigenvalues are read from ``a``'s decomposition, taken if it is not
    yet held.  DomainError names the first member, by flattened index, with
    an input eigenvalue ``<= 0``.
    """
    eigs = a.eig[0]  # ascending, a raised Spectral's too
    low, high = eigs[..., 0].min(axis=-1), eigs[..., -1].max(axis=-1)
    if np.any(low <= 0):
        k = int(np.argmax(low <= 0))
        raise DomainError(f"member {k} has an input with eigenvalue {low.flat[k]:.6g} <= 0")
    return 16 * _EPS * high / low


def _chain(fs, lo, hi):
    """``(g(lo), g(hi), e)`` for the chain ``g`` of increasing functions ``fs``.

    ``e`` bounds the elasticity of ``g`` over ``[lo, hi]`` from below, exactly
    where ``lo = hi``: elasticities multiply under composition, and each
    function's is bounded over the image of the interval under those before it.
    """
    e = np.ones(np.shape(lo))
    for f in fs:
        e = e * rep_elasticity(f, lo, hi)[0]
        lo, hi = f.evaluator(lo), f.evaluator(hi)
    return lo, hi, e


def _frame(w, p, fs, a, s, rounding):
    """``(D, residual, bound)`` at ``S``, per member of :func:`_geodesic_loop`; ``D`` is the Newton direction.

    ``p`` holds one exponent per member.  At ``S S^T = X^{-1}`` the frame
    residual is ``F = sum_i w_i phi_p(g(B_i))`` (:func:`_residual`), and
    every member reports ``rho = ||F||_F``.  With an empty chain: at ``p =
    0``, ``F`` is the Riemannian gradient of the 1-strongly convex ``1/2
    sum_i w_i delta_R(X, A_i)^2``, so ``rho`` bounds ``delta_R(X, G*)``,
    hence the Thompson error.  For ``p > 0``, ``f(X) = sum_i w_i X #_p A_i``
    is a Thompson contraction of rate ``1 - p`` and ``f(X) = X^{1/2} M
    X^{1/2}`` with ``M = I + p F``; with ``e = p rho >= ||M - I||``, ``d(X,
    f(X)) = max |log eig M| <= -log(1 - e)``, so ``rho_p = -log(1 - e) / p``
    bounds ``d(X, X*)`` (infinite for ``e >= 1``).  Either adds
    ``rounding``, that of its own evaluation.  With a chain, ``f(X) = sum_i
    w_i X #_p (X sigma_g A_i)`` moves by the same step and contracts at rate
    ``1 - p e``, ``e`` the least elasticity ``t g'(t) / g(t)`` over the
    spectra of the ``B_i`` (Lim and Palfia's contraction at ``X = I``), so
    ``d(X, X*) <= rho_p / e``, at ``p = 0`` too as the limit.  Over the ball
    of radius ``R = 2 rho_p / e_0`` around ``X`` (``e_0`` on the spectra at
    ``X``) those spectra widen by at most ``e^{+-R}``; with ``e`` taken
    there, ``rho_p / e <= R`` keeps ``f`` in the ball, so ``X*`` lies in it.
    Where ``e < e_0 / 2`` the bound is infinite.

    ``D`` is returned as a matrix; the loop decomposes it only for a large
    step.  ``S <- S e^{-D/2}`` moves each ``B_i = S^T A_i S`` to ``e^{-D/2}
    B_i e^{-D/2}``, so to first order ``F``
    becomes ``F - H[D]`` with ``H[D] = sum_i w_i V_i ((V_i^T D V_i) o K_i)
    V_i^T``, ``B_i = V_i diag(lam) V_i^T`` and ``K_i[j, k]`` the divided
    difference of ``phi_p o g`` at ``(lam_j, lam_k)`` times ``(lam_j +
    lam_k) / 2`` (see :func:`_newton_kernel`).  ``phi_p o g`` is
    increasing, so ``K_i > 0`` and ``H`` is symmetric positive definite;
    :func:`_newton_step` solves ``H[D] = F`` by conjugate gradients, to the
    member's relative residual ``eta`` (:func:`_forcing`), which ``rounding``
    floors.
    Members whose bound is already below ``DT_TOL`` freeze, so their step is
    not solved (``D = 0``).  A member whose ``B_i`` are not all finite and
    positive definite, or whose chain maps an eigenvalue out of ``(0,
    inf)``, reports an infinite residual.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        b = congruence(s[:, None], a)
    b[~np.isfinite(b).all(axis=(-3, -2, -1))] = 0.0  # a frame that overflows is not positive definite
    eb, vb = np.linalg.eigh(b)
    bad = eb[..., 0].min(axis=-1) <= 0
    eb[bad] = 1.0  # keeps the frame finite
    lb = np.log(eb)
    if fs:  # a fast path, as is the one below: without both, mean_certified ran 3.3% slower (261 -> 252/s)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            gb, _, el = _chain(fs, eb, eb)
        lost = ~(np.isfinite(gb) & (gb > 0)).all(axis=(-2, -1))  # lost like a non-PD frame
        eb[lost], lb[lost], gb[lost], el[lost] = 1.0, 0.0, 1.0, 1.0
        bad |= lost
        lg = np.log(gb)
    else:
        lg = lb
    pc = p[:, None, None]
    f = np.divide(np.expm1(pc * lg), pc, out=lg.copy(), where=pc != 0)
    # F = sum_i V_i diag(w_i phi_i) V_i^T as one rebuild over the n spectra side by side
    _, n, d = f.shape
    res = _rebuild(np.swapaxes(vb, -3, -2).reshape(-1, d, n * d), (f * w[..., None]).reshape(-1, n * d))
    resid = np.sqrt(np.sum(res * res, axis=(-2, -1)))
    resid[bad] = np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = np.where(p == 0, resid, -np.log1p(-np.minimum(p * resid, 1.0)) / np.where(p == 0, 1.0, p))
        bound += rounding
        if fs:  # the empty chain's elasticity is 1
            lo, hi = eb[..., 0].min(axis=-1), eb[..., -1].max(axis=-1)
            e0 = _chain(fs, lo, hi)[2]
            widen = np.exp(np.minimum(2.0 * bound / e0, 700.0))
            e = _chain(fs, lo / widen, hi * widen)[2]
            bound = np.where((e > 0) & (e >= 0.5 * e0), bound / e, np.inf)
    direction = np.zeros((len(f), d, d))
    step = bound >= DT_TOL
    if step.any():
        chain = (lg[step], el[step]) if fs else ()
        kern = _newton_kernel(p[step], lb[step], *chain) * w[step][..., None, None]
        eta = _forcing(resid[step], rounding[step], 1.0 if fs else 1.25)
        direction[step] = _newton_step(res[step], eta * resid[step], vb[step], kern)
    return direction, resid, bound


def _newton_kernel(p, lb, lg=None, el=None):
    """``K_i[j, k] = (lam_j + lam_k) / 2 * (psi(lam_j) - psi(lam_k)) / (lam_j - lam_k)``, ``psi = phi_p o g``.

    It takes ``log lam``, ``log g(lam)`` and the elasticity ``el`` of ``g``
    at ``lam``; both are None for the empty chain, where ``g(lam) = lam`` and
    the elasticity is 1.  With ``h`` and ``h'`` half the gaps of ``log lam``
    and ``log g(lam)`` it is ``(g_j g_k)^{p/2} sinh(p h') / (p tanh h)``
    (``h' / tanh h`` at ``p = 0``): no cancellation as ``lam_j -> lam_k``,
    where it tends to ``g^p`` times the elasticity.
    """
    h = 0.5 * (lb[..., :, None] - lb[..., None, :])
    if lg is None:  # two d x d passes fewer: without this branch campaign ran 4.1% slower (6,542 -> 6,274/s)
        lg, hg, lim = lb, h, np.ones_like(h)
    else:
        hg, lim = 0.5 * (lg[..., :, None] - lg[..., None, :]), el[..., :, None] * np.ones_like(h)
    ph = p[:, None, None, None] * hg
    num = hg * np.divide(np.sinh(ph), ph, out=np.ones_like(ph), where=ph != 0)
    half = np.exp(0.5 * p[:, None, None] * lg)[..., None]
    ratio = np.divide(num, np.tanh(h), out=lim, where=h != 0)
    return ratio * half * half.swapaxes(-1, -2)


def _newton_apply(vb, kern, x):
    """``H[x] = sum_i V_i ((V_i^T x V_i) o kern_i) V_i^T`` per member, ``V_i = vb[:, i]``."""
    vbt = vb.swapaxes(-1, -2)
    t = vbt @ x[:, None] @ vb
    t *= kern
    return (vb @ t @ vbt).sum(axis=1)


_CG_FORCING = 0.1  # largest relative residual of a Newton direction


def _forcing(rho, rounding, q):
    """The relative residual ``eta = min(0.1, max(min(0.1, rho)^q, r / rho))`` at which a member's CG stops.

    ``rho = ||F||_F`` and ``r`` is the rounding term of the member's bound,
    ``16 eps / p`` or ``16 eps sqrt d`` at ``p = 0`` (:func:`_geodesic_loop`).
    A forcing term ``eta = O(rho^q)`` keeps an inexact Newton method's
    convergence superlinear for ``q > 0`` and quadratic for ``q = 1``
    (Eisenstat and Walker, SIAM J. Sci. Comput. 17 (1996)).  ``q = 5/4``
    for an empty chain: its first step then lands about where an exact one
    would, so the mean_certified ensembles of three or more inputs take two
    steps, where ``q = 1`` left 12 of the 56 at seed 0 with three.  ``q =
    1`` for a chain: at ``5/4`` a deformed solve at spread 1e12 lost its
    damping and raised after 113 steps, where it returns after 15.  Solving
    the direction to a relative error below ``r / rho``, finer than the
    rounding of the residual it solves for, gains nothing, so that floors
    ``eta``.
    """
    with np.errstate(divide="ignore"):
        return np.minimum(_CG_FORCING, np.maximum(np.minimum(_CG_FORCING, rho) ** q, rounding / rho))


def _newton_step(f, stop, vb, kern):
    """Solve ``H[D] = F`` per member by conjugate gradients from ``D = F``; see :func:`_frame`.

    ``kern`` holds ``w_i K_i``.  Each member stops once its residual is at
    most ``stop``, its forcing term times ``||F||_F`` (:func:`_forcing`),
    or after ``d (d + 1) / 2`` steps, the dimension of the symmetric
    matrices.  One application of ``H`` takes four batched ``d x d``
    products per input; ``H`` is never formed.  A finished member leaves
    the batch, so its bits do not depend on it.
    """
    d = f.shape[-1]
    x, r = f.copy(), f - _newton_apply(vb, kern, f)
    p, rr = r.copy(), np.sum(r * r, axis=(-2, -1))
    stop = stop * stop
    idx = np.arange(len(f))
    for _ in range(d * (d + 1) // 2):
        live = rr > stop
        if not live.all():
            idx, p, r, rr, stop, vb, kern = (y[live] for y in (idx, p, r, rr, stop, vb, kern))
        if not len(idx):
            break
        hp = _newton_apply(vb, kern, p)
        alpha = (rr / np.sum(p * hp, axis=(-2, -1)))[:, None, None]
        x[idx] += alpha * p
        r -= alpha * hp
        rr, rr_old = np.sum(r * r, axis=(-2, -1)), rr
        p = r + (rr / rr_old)[:, None, None] * p
    return x


def _retraction(t):
    """The lower Cholesky factor ``C`` of ``I - t + t^2 / 2 = (I + (I - t)^2) / 2`` per symmetric ``t``.

    Its eigenvalues are at least 1/2, so ``C`` always exists, and ``C C^T``
    differs from ``e^{-t}`` by at most ``e^{||t||} - 1 - ||t|| - ||t||^2 /
    2`` in the spectral norm, the remainder of the exponential series.
    """
    m = np.eye(t.shape[-1]) - t
    return np.linalg.cholesky(0.5 * (np.eye(t.shape[-1]) + m @ m))


def _second_order_start(low, hinv, p, w_min):
    """``(m, h)`` of the spectral step from ``A_w`` to ``X_0 = A_w #_s H_w``, ``s = (1 - p) / 2``, per member.

    ``low`` is the Cholesky factor of ``J A_w J`` and ``hinv`` is ``H_w^{-1}
    = sum_i w_i A_i^{-1}``.  With ``K = J low^T J``, so that ``K^T K = A_w``
    and ``S_0 = K^{-1}``, and ``m = K H_w^{-1} K^T = U diag(lam) U^T``,
    ``X_0^{-1} = S_0 U diag(lam^s) U^T S_0^T`` by the congruence invariance
    of ``#_s``, a step with ``h = lam^{s/2}`` (:func:`_spectral_step`);
    ``H_w <= A_w`` gives ``lam >= 1``, so ``lam`` is clamped there against
    rounding.  ``X_0`` agrees with ``P_p`` to second order about equal
    inputs and is ``A # H`` for the Karcher mean (``p = 0``).

    For ``p > 0`` the factor ``lam^{-s}`` of ``X_0`` is also clamped below at
    ``c = w_min^{1/p}``, ``w_min`` the least weight, so that ``c A_w <= X_0
    <= A_w``, where ``P_p`` lies too: the fixed point ``X = sum_i w_i X #_p
    A_i`` is at least each of its terms, so ``X >= w_j X^{1/2} (X^{-1/2}
    A_j X^{-1/2})^p X^{1/2}``, that is ``X^{-1/2} A_j X^{-1/2} <= w_j^{-1/p}
    I``, and ``X >= w_j^{1/p} A_j >= c A_j`` for every ``j``; their weighted
    sum is ``X >= c A_w``.  At wide spreads ``lam^{-s}`` would otherwise
    start the solve up to ``s log(spread)`` from ``A_w``, past that interval.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = congruence(low[..., ::-1, ::-1], hinv)  # low[..., ::-1, ::-1] is K^T
    root_c = np.where(p > 0, w_min ** (0.5 / np.where(p > 0, p, 1.0)), 0.0)[:, None]
    return m, lambda lam: 1.0 / np.maximum(np.maximum(lam, 1.0) ** (-0.25 * (1.0 - p))[:, None], root_c)


def _two_matrix_start(s0, a1, w, p):
    """``(m, h)`` of the spectral step from ``A_w`` to the exact mean of two inputs, per member.

    ``S_0 S_0^T = A_w^{-1}`` and ``a1`` is ``A_1``.  In ``A_w``'s frame
    ``B_i = S_0^T A_i S_0`` the inputs commute, as ``w_1 B_1 + w_2 B_2 =
    I``: with ``m = B_1 = U diag(mu) U^T``, ``B_2 = U diag(nu) U^T`` for
    ``nu = (1 - w_1 mu) / w_2``, so their mean is ``U diag((w_1 mu^p + w_2
    nu^p)^{1/p}) U^T``, ``mu^{w_1} nu^{w_2}`` at ``p = 0`` (Lim and Palfia,
    JFA 262 (2012)), and ``X_0^{-1} = S_0 U diag(h^2) U^T S_0^T`` for ``h``
    that mean's eigenvalues to the power ``-1/2``.  At ``w_2 = 0`` the mean
    is ``A_1``, which any ``nu`` gives.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = congruence(s0, a1)
    w1, w2, pc = w[:, :1], w[:, 1:], p[:, None]

    def h(mu):
        nu = np.divide(1.0 - w1 * mu, w2, out=np.ones_like(mu), where=w2 > 0)
        at_zero = mu ** (-0.5 * w1) * nu ** (-0.5 * w2)
        return np.where(pc == 0, at_zero, (w1 * mu**pc + w2 * nu**pc) ** (-0.5 / np.where(pc == 0, 1.0, pc)))

    return m, h


def _spectral_step(g, m, h):
    """``S``, lower triangular with ``S S^T = g U diag(h(lam))^2 U^T g^T`` per member, for ``m = U diag(lam) U^T``.

    One batched ``d x d`` ``eigh`` of ``m``; a QR of the product's
    transpose makes ``S`` triangular (a Cholesky factor of ``S S^T`` would
    square its condition).  A product that overflows is left for the frame
    to reject.
    """
    lam, u = np.linalg.eigh(m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = g @ (u * h(lam)[:, None, :])
    return np.linalg.qr(y.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)


def _inverse_factor(low):
    """``S = J L^{-T} J``, lower triangular with ``S S^T = X^{-1}``, for the Cholesky factor ``L L^T = J X J``."""
    return np.linalg.inv(low).swapaxes(-1, -2)[..., ::-1, ::-1]


def _geodesic_loop(w, p, fs, stack, what, inv):
    """The mean of residual ``(inv, p, fs)`` (:func:`_residual`) on the :class:`Spectral` ``stack`` by damped Riemannian Newton steps.

    ``p >= 0``, ``inv`` and ``what`` are each a number, or one per group: one
    call then solves every group's node on the same inputs, so Karcher
    members go beside power-mean members, group by group; the chain ``g`` of
    ``fs`` is shared.  The rounding floor is read from ``stack``'s
    decomposition (:func:`_rounding_floor`) before any inverse is taken, so
    a nonpositive input raises DomainError first; a group marked ``inv``
    solves on the inverses ``A_i^{-1}``, raised from that decomposition
    (:meth:`Spectral.raised`), whose spreads are those of the inputs.

    Each member's iterate ``X`` is carried as a lower triangular ``S`` with
    ``S S^T = X^{-1}``.  That of the weighted arithmetic mean ``A_w``, ``S_0
    = J L^{-T} J`` for the Cholesky factor ``L L^T = J A_w J`` (``J`` the
    reversal permutation), is taken first, and its failure raises
    :class:`NoConvergence` before any inverse is formed.  With an empty
    chain every member then takes one spectral step from ``S_0``
    (:func:`_spectral_step`: one ``d x d`` ``eigh`` and one QR) to its start
    ``X_0``.  Over two inputs ``X_0`` is their exact mean
    (:func:`_two_matrix_start`), as the inputs commute in ``A_w``'s frame,
    so the first frame stops the solve wherever rounding allows.  Over more
    ``X_0`` is the second-order mean ``A_w #_{(1-p)/2} H_w``
    (:func:`_second_order_start`), ``H_w`` the weighted harmonic mean, whose
    inverse is summed from the inputs of the opposite ``inv``, rebuilt once
    from ``stack``'s decomposition.  A member whose start is not finite or
    whose first frame is not positive definite goes back to ``S_0``, and
    every member with a chain starts there: its second-order term would
    need ``g''(1)``.

    :func:`_frame` maps ``S`` to the Newton direction ``D``, a residual that
    decides the steps and the error bound that stops them, in the frame
    ``B_i = S^T A_i S``, whose spectra are those of ``X^{-1/2} A_i
    X^{-1/2}`` as ``S = X^{-1/2} Q``, ``Q`` orthogonal.  The bound includes
    the rounding of its own evaluation, ``16 eps sqrt d`` at ``p = 0`` and
    ``16 eps / p`` otherwise.  A step
    moves ``X`` to ``X^{1/2} exp(theta Q D Q^T) X^{1/2}``, or to second order
    so, at the member's cap ``theta``: 1 at first, halved when the step is
    rejected, raised by 1.25 when accepted.  A small step, ``||theta D||_F
    <= tau``, is ``S <- S C`` with ``C C^T = I - theta D + theta^2 D^2 / 2``
    (:func:`_retraction`): a second-order retraction, under which Newton
    keeps its local quadratic rate (Absil, Mahony and Sepulchre,
    *Optimization Algorithms on Matrix Manifolds*, 2008, ch. 6), that
    decomposes no ``D`` and leaves ``S C`` lower triangular.  A large step is
    the exponential one, ``S <- S V exp(-theta Lambda / 2)`` for ``D = V
    diag(Lambda) V^T``, the same spectral step as the start's.  The
    retraction departs from the exponential step by about ``||theta D||^3 /
    6``, that is by at most ``e`` times the step ``||theta D||`` for ``tau
    = sqrt(6 e)``, ``e = min(_CG_FORCING, ||F||_F)``: a relative error
    ``O(||F||_F)``, the quadratic forcing term, which keeps Newton's rate
    quadratic.  It may exceed the member's own forcing term
    (:func:`_forcing`), ``e^{5/4}`` with an empty chain, but near the
    solution ``||D||`` is about ``||F||_F``, so the departure, ``O(||F||^3)``,
    falls below that direction's error, ``O(||F||^{9/4})``.  So ``tau`` is
    at most ``sqrt(6 _CG_FORCING)``, about 0.775, and shrinks with the
    residual; a large direction at a small residual, where the Newton
    operator is near singular, takes the exponential step.

    A candidate is accepted only if it does not raise the residual, which
    is infinite unless its ``B_i`` are finite and positive definite.  A member
    whose bound is below ``DT_TOL`` is frozen, and all arithmetic is per
    member, so its solution and its iteration count (the loop's count when it
    froze) do not depend on its batch.  A member whose step is rejected while
    its residual is within its floor, ``sqrt d`` times the rounding floor of
    its inputs (the scale of a Frobenius residual), is frozen with its bound,
    since its residual is rounding noise; a damping collapse above it or a
    ``LinAlgError`` stops the loop with :class:`NoConvergence`, naming the
    live members by ``what``.

    It returns values, counts, bounds and factors ``S`` per member, shaped
    by the groups (the shape of ``p``) followed by the batch that ``stack``
    and ``w`` broadcast to; members are numbered in that order.  A member's
    value is that of its node (:func:`_node_value`): ``X = K^T K`` (``K =
    S^{-1}``), or ``S S^T = X^{-1}`` itself in an ``inv`` group, whose mean
    is the inverse of ``X``.  :class:`NoConvergence` carries the same values
    at the last accepted iterates.
    """
    n, d = stack.shape[-3:-1]
    groups, batch = np.shape(p), np.broadcast_shapes(stack.shape[:-3], np.shape(w)[:-1])
    floor = _rounding_floor(stack)  # before the inverses: it names a nonpositive input
    inv = np.ravel(inv)
    inverses = functools.cache(lambda: stack.raised(-1))  # raised when first read, rebuilt once

    def inputs(flags):  # per group, the inputs or, where flagged, their inverses
        return np.concatenate([np.broadcast_to((inverses() if f else stack).a, batch + (n, d, d)) for f in flags])

    a = inputs(inv).reshape(-1, n, d, d)
    w = np.broadcast_to(w, groups + batch + (n,)).reshape(-1, n)
    size, root_d = len(a), np.sqrt(d)
    per_group = size // len(inv)
    p = np.repeat(p, per_group)
    rounding = np.divide(16 * _EPS, p, out=np.full(size, 16 * _EPS * root_d), where=p != 0)
    floor = np.broadcast_to(floor, groups + batch).reshape(-1) * root_d
    try:
        low = np.linalg.cholesky(_weighted_sum(w, a)[..., ::-1, ::-1])
    except np.linalg.LinAlgError:
        raise NoConvergence("geodesic start is not positive definite") from None
    s = s0 = _inverse_factor(low)
    if not fs:  # a chain's second-order term would need g''(1)
        try:
            if n == 2:
                m, h = _two_matrix_start(s0, a[:, 0], w, p)
            else:
                with np.errstate(over="ignore"):
                    hinv = _weighted_sum(w, inputs(~inv).reshape(-1, n, d, d))
                m, h = _second_order_start(low, hinv, p, w.min(axis=-1))
        except DomainError:  # an inverse past the float range: every member starts at A_w
            pass
        else:
            m[~np.isfinite(m).all(axis=(-2, -1))] = np.eye(d)  # eigh raises on a member that is not finite
            s = _spectral_step(s0, m, h)
    idx = np.arange(size)  # the members still iterating
    direction, resid, bound = _frame(w, p, fs, a, s, rounding)
    lost = ~np.isfinite(resid) & (s != s0).any(axis=(-2, -1))
    if lost.any():  # a start whose frame is not positive definite falls back to A_w
        s[lost] = s0[lost]
        direction[lost], resid[lost], bound[lost] = _frame(w[lost], p[lost], fs, a[lost], s[lost], rounding[lost])
    if not np.all(np.isfinite(resid)):
        raise NoConvergence("geodesic iterate lost positive definiteness")
    out_s, out_bound, out_iters = s.copy(), bound.copy(), np.zeros(size, dtype=int)
    cap = np.ones(size)
    live, iters, halt = bound >= DT_TOL, 0, "stopped above its tolerance"
    try:
        while True:
            all_live = live.all()
            if not all_live:  # write out the members that stopped, go on with the rest
                fin = idx[~live]
                out_s[fin], out_bound[fin], out_iters[fin] = s[~live], bound[~live], iters
                idx, s, direction, resid, bound, cap, w, p, a, rounding, floor = (
                    x[live] for x in (idx, s, direction, resid, bound, cap, w, p, a, rounding, floor))
            if not len(idx) or iters == MAX_ITERS:
                break
            iters += 1
            t = cap[:, None, None] * direction
            with np.errstate(over="ignore"):  # a direction too large to square takes the exponential step
                small = np.sum(t * t, axis=(-2, -1)) <= 6 * np.minimum(_CG_FORCING, resid)  # ||theta D||_F <= tau
            large = ~small
            s_t = np.empty_like(s)
            if small.any():
                s_t[small] = s[small] @ _retraction(t[small])
            if large.any():
                c = cap[large, None]
                s_t[large] = _spectral_step(s[large], direction[large], lambda lam: np.exp(-0.5 * c * lam))
            direction_t, resid_t, bound_t = _frame(w, p, fs, a, s_t, rounding)
            # a step below rounding leaves S as it was: rejected, so the damping collapses instead of cycling
            back = ~(resid_t <= resid) | (s_t == s).all(axis=(-2, -1))
            cap_t = np.minimum(1.0, 1.25 * cap)
            if back.any():
                cap_t[back] = 0.5 * cap[back]
                for new, old in ((s_t, s), (direction_t, direction), (resid_t, resid), (bound_t, bound)):
                    new[back] = old[back]
            s, direction, cap, resid, bound = s_t, direction_t, cap_t, resid_t, bound_t
            live = bound >= DT_TOL
            if back.any():
                # past a rejected step, a residual within the floor is rounding noise: accept the bound
                live &= ~(back & (resid <= floor) & np.isfinite(bound))
                if np.any(live & (cap < 1e-8)):
                    break
    except np.linalg.LinAlgError as exc:  # the live members keep their last accepted iterate
        halt = f"failed ({exc})"
    out_s[idx] = s
    x = _node_value(out_s.reshape(len(inv), -1, d, d), inv).reshape(groups + batch + (d, d))
    if len(idx):
        what = np.repeat(what, per_group)
        members = [
            {"member": int(i), "what": str(what[i]), "bound": float(b), "residual": float(rho)}
            for i, b, rho in zip(idx, bound, resid)
        ]
        named = ", ".join(f"{m['member']} ({m['what']}, bound {m['bound']:.3e})" for m in members[:5])
        msg = f"geodesic iteration {halt} after {iters} steps; {len(idx)} live: {named}"
        raise NoConvergence(msg + (", ..." if len(idx) > 5 else ""), x, float(bound.max()), members)
    return x, out_iters.reshape(groups + batch), out_bound.reshape(groups + batch), out_s.reshape(x.shape)


def _node_value(s, inv):
    """Node values from factors ``S S^T = X^{-1}``, stacked by group on ``s``'s first axis and flagged by ``inv``.

    ``X = K^T K`` (``K = S^{-1}``), one batched inverse over every group not
    flagged, or ``S S^T`` itself where ``inv`` is set.
    """
    inv = np.broadcast_to(inv, s.shape[:1])
    x = np.empty_like(s)
    k = np.linalg.inv(s[~inv])
    x[~inv] = k.swapaxes(-1, -2) @ k
    x[inv] = s[inv] @ s[inv].swapaxes(-1, -2)
    return sym(x)


def eval_mean_stack(
    spec: MultiMeanSpec, stack, weights_override=None, *, certify: bool = True
) -> StackResult:
    """Evaluate ``spec`` on stacked ensembles of shape ``(..., n, d, d)``.

    ``stack`` is an array or the :class:`Spectral` of one, whose held
    decomposition the solve then reads instead of taking one (see
    :func:`_eval_node`).  ``weights_override`` (shape ``(n,)`` or ``(...,
    n)``) substitutes the weight vector at every weighted node, which is how
    campaigns run many random weightings through one batched solve.
    Iterative solves stop at ``DT_TOL``; a Karcher mean is also certified
    unless ``certify`` is off.  That is one loop call on ``[A]`` at exponent
    0 and ``[A]``, ``[A^{-1}]`` at ``KARCHER_ALPHA``, three groups over the
    inputs' one decomposition; members freeze on their own and take the
    uncertified solve's rounding floor, so only the gap differs.
    """
    stack = stack if isinstance(stack, Spectral) else Spectral(stack)
    shape = stack.shape
    if len(shape) < 3 or shape[-1] != shape[-2]:
        raise DimensionMismatch(f"expected shape (..., n, d, d), got {shape}")
    n, certified = shape[-3], spec.kind == "karcher" and certify
    if not certified or n == 1:
        vals, iters, bound = _eval_node(spec, stack, weights_override)
        gap = np.zeros(np.shape(bound)) if certified else None
    else:
        t, w = KARCHER_ALPHA, _node_weights(spec, weights_override, n)
        what = ["Karcher", f"enclosure end P_{t}", f"enclosure end P_-{t}"]
        x, iters, bound, s = _geodesic_loop(w, (0.0, t, t), (), stack, what, (False, False, True))
        vals, iters, gap = x[0], iters[0], _certify_karcher(*x, s[1], bound)
        bound = bound[0]
    iters = int(np.max(iters, initial=0))
    return StackResult(values=vals, iterations=iters, residual_dt=np.asarray(bound), enclosure_gap=gap)


def _certify_karcher(vals, upper, lower, s_upper, bounds):
    """Assert ``lower <= vals <= upper`` for a Karcher solve and its power-mean enclosure; return its width.

    ``P_{-t} <= G <= P_t`` with ``t = KARCHER_ALPHA``; the ends solve a
    different equation from ``G``, in the same loop call (see
    :func:`eval_mean_stack`), the lower one through ``P_{-t}(A) =
    P_t(A^{-1})^{-1}``.  The margins are those of ``order_margin`` for
    ``vals <= upper`` and ``lower <= vals``.  ``bounds`` stacks the solves'
    Thompson error bounds of ``vals``, ``upper`` and ``lower`` as the loop
    returns them (zeros for exact values).  Those errors alone can
    make a margin negative.  With ``d(G, G*) <= delta_G`` and ``d(U, U*) <=
    delta_U``, where ``d(X, Y) <= delta`` means ``e^{-delta} Y <= X <=
    e^{delta} Y``, the true order ``G* <= U*`` gives ``G <= e^{delta_G} G*
    <= e^{delta_G} U* <= e^{delta} U`` for ``delta = delta_G + delta_U``,
    so ``U - G >= -expm1(delta) U``; likewise ``L* <= G*`` gives ``G - L
    >= -expm1(delta) G`` for ``delta = delta_G + delta_L``.  The least
    eigenvalue of either difference is then at least ``-expm1(delta)``
    times the sum of its two sides' norms, the margin's denominator, so a
    true enclosure has margins of at least ``-expm1(delta)``, and only a
    margin below ``-(CHECK_TOL + expm1(delta))`` escapes it.

    The width is the Thompson distance ``max |log eig(S^T P_{-t} S)|``
    for ``S S^T = P_t^{-1}``, the factor ``s_upper`` that the loop holds.
    """
    # one eigvalsh for both differences, the three norms and the gap, the bits of six
    lam, norm = spectral_ends(np.stack([upper - vals, vals - lower, vals, upper, lower, congruence(s_upper, lower)]))
    margins = 0.5 * lam[:2] / (0.5 * norm[2] + 0.5 * norm[3:5])  # order_margin's formula
    with np.errstate(over="ignore"):
        slack = CHECK_TOL + np.expm1(bounds[0] + bounds[1:])
    if np.any(margins < -slack):
        raise CertificationFailure(
            "Karcher solve escaped its power-mean enclosure "
            f"(margins {float(np.min(margins[0])):.3e}, {float(np.min(margins[1])):.3e})"
        )
    return np.maximum(np.log(norm[5]), -np.log(_positive(lam[5], "thompson distance")))


# --------------------------------------------------------------------------
# typed API
# --------------------------------------------------------------------------


def _as_stack(As: Sequence[SpdMatrix]):
    return _stack_of([m.a for m in As])


def eval_mean(spec: MultiMeanSpec, As: Sequence[SpdMatrix], *, certify: bool = True) -> MeanResult:
    """Evaluate any mean description on a list of SPD matrices; see :func:`eval_mean_stack`."""
    return MeanResult.of(eval_mean_stack(spec, _as_stack(As), certify=certify))


def elementary_mean(kind: str, w: Weights, As: Sequence[SpdMatrix]) -> SpdMatrix:
    """Weighted arithmetic or harmonic mean (closed forms)."""
    if kind not in ("arithmetic", "harmonic"):
        raise UnknownKind(f"elementary mean must be arithmetic or harmonic, got {kind!r}")
    return eval_mean(MultiMeanSpec(kind, weights=w), As).value


def deformed_mean(base: MultiMeanSpec, sigma: RepFnSpec, As: Sequence[SpdMatrix]) -> MeanResult:
    """Fixed point of ``X = base(X sigma A_1, ..., X sigma A_n)``."""
    return eval_mean(MultiMeanSpec.deformed(base, sigma), As)


def power_mean(w: Weights, alpha: float, As: Sequence[SpdMatrix]) -> MeanResult:
    return eval_mean(MultiMeanSpec.power(w, alpha), As)


def karcher_mean(w: Weights, As: Sequence[SpdMatrix], *, certify: bool = True) -> MeanResult:
    """Solve the defining equation of the multivariate geometric mean.

    The returned result is certified (unless ``certify`` is off) by the
    power-mean pair at exponents ``+-KARCHER_ALPHA``, an enclosure whose
    ends solve a different equation, as members of the same loop call;
    ``enclosure_gap`` is the Thompson width of that certificate.
    """
    return eval_mean(MultiMeanSpec.karcher(w), As, certify=certify)


def adjoint_eval(spec: MultiMeanSpec, As: Sequence[SpdMatrix]) -> MeanResult:
    """Evaluate the adjoint of ``spec``: the mean of the inverses, inverted."""
    return eval_mean(MultiMeanSpec.adjoint(spec), As)


def comparison_bound(
    base: MultiMeanSpec,
    sigma: RepFnSpec,
    As: Sequence[SpdMatrix],
    Y: SpdMatrix,
    direction: str,
) -> LoewnerVerdict:
    """One-sided comparison of ``Y`` against the deformed mean.

    ``direction='lower'`` requires the premise ``Y <= base(Y sigma A_j ...)``
    and then compares ``Y`` with the deformed mean; ``'upper'`` is the
    mirror image.  A failing premise raises :class:`HypothesisFails`, it is
    not an inequality violation.
    """
    if direction not in ("lower", "upper"):
        raise BadMode(f"direction must be 'lower' or 'upper', got {direction!r}")
    stack = _as_stack(As)
    if Y.dim != stack.shape[-1]:
        raise DimensionMismatch(f"Y has dimension {Y.dim}, inputs {stack.shape[-1]}")
    yh, blocks = pair_frame(Spectral(Y.a), stack)
    f_blocks = blocks.apply(lambda t: rep_eval(sigma, t))
    z, _, _ = _eval_node(base, f_blocks)
    fy = SpdMatrix(dim=Y.dim, entries=congruence(yh, z))
    premise = loewner_compare(Y, fy)
    ok = premise.holds_le if direction == "lower" else premise.holds_ge
    if not ok:
        raise HypothesisFails(
            f"premise Y {'<=' if direction == 'lower' else '>='} base(Y sigma A_j) "
            f"fails with margin {premise.margin:.3e}"
        )
    target = deformed_mean(base, sigma, As).value
    return loewner_compare(Y, target)


# --------------------------------------------------------------------------
# wire format
# --------------------------------------------------------------------------


def meanspec_to_json(spec: MultiMeanSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.weights is not None:
        out["weights"] = list(spec.weights.values)
    if spec.alpha is not None:
        out["alpha"] = spec.alpha
    if spec.base is not None:
        out["base"] = meanspec_to_json(spec.base)
    if spec.sigma is not None:
        out["sigma"] = repfn_to_json(spec.sigma)
    if spec.inner is not None:
        out["inner"] = meanspec_to_json(spec.inner)
    return out


def meanspec_from_json(obj) -> MultiMeanSpec:
    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise UnknownKind(f"mean JSON must carry 'kind': {exc}") from exc
    extra = sorted(set(obj) - {f.name for f in fields(MultiMeanSpec)})
    if extra:
        raise ConfigError(f"unknown mean description keys: {extra}")
    weights = Weights(obj["weights"]) if "weights" in obj else None
    return MultiMeanSpec(
        kind=kind,
        weights=weights,
        alpha=obj.get("alpha"),
        base=meanspec_from_json(obj["base"]) if "base" in obj else None,
        sigma=repfn_from_json(obj["sigma"]) if "sigma" in obj else None,
        inner=meanspec_from_json(obj["inner"]) if "inner" in obj else None,
    )
