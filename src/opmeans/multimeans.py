"""n-variable matrix means: elementary, deformed, power, Karcher, adjoint.

The deformed mean of a base mean ``M`` by a two-variable mean ``sigma`` is
the unique fixed point of ``X = M(X sigma A_1, ..., X sigma A_n)`` (Lim and
Palfia, *Matrix power means and the Karcher mean*, JFA 262 (2012)).  Power
means are the deformations of the arithmetic mean by ``t^p``, and the
Karcher mean is their limit; all three run one damped geodesic iteration,
:func:`_geodesic_loop`, that stops on a true Thompson error bound.  A
deformed mean steps towards the mean of its frame, Anderson-mixed in the
chart ``log X``.  Power and Karcher means take Riemannian Newton steps:
the direction solves the frame residual's linearization, a Daleckii-Krein
kernel on the spectra the frame already holds, by matrix-free conjugate
gradients (:func:`_power_frame`), and takes 3-5 iterations where the
gradient step took 10-26.  Their bound also covers the rounding of its own
evaluation.  A Karcher solve is certified by
the power-mean enclosure ``P_{-t} <= G <= P_t``, whose ends solve a
different equation in the same loop call: the loop takes one exponent per
member.

All solvers run on stacked operands of shape ``(..., n, d, d)`` and
broadcast over the leading axes, which is what makes large randomized
verification campaigns cheap; the typed API wraps the single-ensemble case.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AlphaZero,
    ArityMismatch,
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
from .meanfns import RepFnSpec, rep_elasticity, rep_eval, repfn_from_json, repfn_to_json
from .psd_core import (
    CHECK_TOL,
    LoewnerVerdict,
    Spectral,
    SpdMatrix,
    _rebuild,
    congruence,
    loewner_compare,
    op_norm,
    order_margin,
    pair_frame,
    spd_inv,
    thompson,
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
    (0 for closed forms).  For power and Karcher means it includes the
    rounding of its own evaluation, ``16 eps / |alpha|`` and ``16 eps sqrt d``.
    ``iterations`` counts the iterations of the geodesic loop, damped and
    Newton steps and Anderson points alike, of the mean's own members (the
    largest over a batch), not of a certified Karcher solve's enclosure ends."""

    value: SpdMatrix
    iterations: int
    residual_dt: float
    enclosure_gap: Optional[float] = None

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


def _node_weights(spec: MultiMeanSpec, w_over, n: int):
    if w_over is not None:
        w = np.asarray(w_over, dtype=float)
    elif spec.weights is not None:
        w = spec.weights.asarray()
    else:
        raise InvalidWeights(f"mean kind {spec.kind!r} needs weights")
    if w.shape[-1] != n:
        raise ArityMismatch(f"{w.shape[-1]} weights for {n} matrices")
    return w


def _weighted_sum(w, stack):
    return np.einsum("...n,...nij->...ij", w, stack)


def _eval_node(spec: MultiMeanSpec, stack, w_over=None, tol=DT_TOL):
    """Evaluate a mean on ``stack`` of shape (..., n, d, d).

    Returns ``(values, iterations, bound)``, the count (0 for a closed form)
    and the Thompson error bound of :class:`MeanResult` per member.  Iterative
    solves stop once the bound is below ``tol``, a number or one per member.
    """
    n = stack.shape[-3]
    batch = stack.shape[:-3]
    zeros = np.zeros(batch)
    if spec.weights is not None and w_over is None and len(spec.weights.values) != n:
        raise ArityMismatch(f"{len(spec.weights.values)} weights for {n} matrices")
    if n == 1:
        # forced by normalization plus congruence invariance
        return stack[..., 0, :, :], 0, zeros
    kind = spec.kind
    if kind == "arithmetic":
        return _weighted_sum(_node_weights(spec, w_over, n), stack), 0, zeros
    if kind == "harmonic":
        return spd_inv(_weighted_sum(_node_weights(spec, w_over, n), spd_inv(stack))), 0, zeros
    if kind == "adjoint":
        vals, iters, bound = _eval_node(spec.inner, spd_inv(stack), w_over, tol)
        return spd_inv(vals), iters, bound
    if kind == "power" and spec.alpha < 0:
        # P_{-t} is the adjoint of P_t, and the Thompson bound is inversion invariant
        dual = MultiMeanSpec.adjoint(MultiMeanSpec.power(spec.weights, -spec.alpha))
        return _eval_node(dual, stack, w_over, tol)
    if kind == "power":
        return _power_loop(_node_weights(spec, w_over, n), spec.alpha, stack, tol, "power-mean")
    if kind == "karcher":
        return _power_loop(_node_weights(spec, w_over, n), 0.0, stack, tol, "Karcher")
    return _deformed_node(spec, stack, w_over, tol)


def _members(stack, w):
    """``stack`` and the weights ``w`` (None: the spec's own) on one batch, flattened to members."""
    n, d = stack.shape[-3:-1]
    batch = np.broadcast_shapes(stack.shape[:-3], () if w is None else np.shape(w)[:-1])
    a = np.broadcast_to(stack, batch + (n, d, d)).reshape(-1, n, d, d)
    return batch, a, None if w is None else np.broadcast_to(w, batch + (n,)).reshape(-1, n)


_EPS = np.finfo(float).eps
_DEPTH = 5  # Anderson history kept per member
_EYE = np.eye(_DEPTH)


def _rounding_floor(a):
    """``16 eps kappa`` per member, ``kappa`` the spectral spread of its inputs.

    DomainError names the first member with an input eigenvalue ``<= 0``.
    """
    eigs = np.linalg.eigvalsh(a)
    low = eigs[..., 0].min(axis=-1)
    if np.any(low <= 0):
        k = int(np.argmax(low <= 0))
        raise DomainError(f"member {k} has an input with eigenvalue {low[k]:.6g} <= 0")
    return 16 * _EPS * eigs[..., -1].max(axis=-1) / low


def _power_loop(w, p, stack, tol, what):
    """``P_p`` (``0 < p <= 1``) or the Karcher mean (``p = 0``) by Newton steps in :func:`_geodesic_loop`.

    ``p`` is a number or one per flattened member, so one call can solve
    Karcher members beside power-mean members.  At ``S = X^{-1/2}`` the
    frame residual is ``F = sum_i w_i phi(B_i)`` with ``phi(t) = (t^p - 1) /
    p`` (``log t`` at ``p = 0``), zero exactly at the mean, and the step is
    the Newton direction of :func:`_power_frame`.  Both kinds report ``rho =
    ||F||_F``.  At ``p = 0``, ``F`` is the Riemannian gradient of the
    1-strongly convex ``1/2 sum_i w_i delta_R(X, A_i)^2``, so ``rho`` bounds
    ``delta_R(X, G*)``, hence the Thompson error.  For ``p > 0``, ``f(X) =
    sum_i w_i X #_p A_i`` is a Thompson contraction of rate ``1 - p`` and
    ``f(X)`` is ``X^{1/2} M X^{1/2}`` with ``M = I + p F``; with ``e = p rho
    >= ||M - I||``, ``d(X, f(X)) = max |log eig M| <= -log(1 - e)``, so
    ``-log(1 - e) / p`` bounds ``d(X, X*)`` (infinite for ``e >= 1``).  The
    bounds add the rounding of their own evaluation, ``16 eps sqrt d``
    (``16 eps / p``), and the floor is ``sqrt d`` times that of the inputs,
    the scale of a Frobenius residual.  ``what`` names the members, as in
    :func:`_geodesic_loop`.
    """
    batch, a, w = _members(stack, w)
    p, root_d = np.broadcast_to(p, len(a)), np.sqrt(a.shape[-1])
    rounding = np.divide(16 * _EPS, p, out=np.full(len(a), 16 * _EPS * root_d), where=p != 0)
    tol = np.broadcast_to(tol, len(a))

    def frame(idx):
        wi, pi, ai, ri, ti = w[idx], p[idx], a[idx], rounding[idx], tol[idx]
        return lambda s: _power_frame(wi, pi, ai, s, ri, ti)

    return _geodesic_loop(frame, _weighted_sum(w, a), None, _rounding_floor(a) * root_d, tol, what, batch)


def _frame_spectra(s, a):
    """Spectra of ``B_i = S A_i S`` (``S`` symmetric), and the members where one is not positive.

    Those members' spectra are replaced by ones, so that their frame stays
    finite; the frame reports an infinite residual for them.
    """
    eb, vb = np.linalg.eigh(congruence(s[:, None], a))
    bad = eb[..., 0].min(axis=-1) <= 0
    eb[bad] = 1.0
    return eb, vb, bad


def _power_frame(w, p, a, s, rounding, tol):
    """``(D, eigenvectors of D, max |log eig B_i|, residual, bound)`` at ``S``; see :func:`_power_loop`.

    ``p`` holds one exponent per member, 0 for a Karcher member.  ``D`` is
    the Newton direction: ``X' = R e^D R`` (``R = X^{1/2}``) moves each
    ``B_i`` to ``e^{-D/2} B_i e^{-D/2}`` to first order, so ``F`` becomes
    ``F - H[D]`` with ``H[D] = sum_i w_i V_i ((V_i^T D V_i) o K_i) V_i^T``,
    ``B_i = V_i diag(lam) V_i^T`` and ``K_i[j, k]`` the divided difference
    of ``phi`` at ``(lam_j, lam_k)`` times ``(lam_j + lam_k) / 2`` (see
    :func:`_newton_kernel`).  ``H`` is symmetric positive definite, and
    :func:`_newton_step` solves ``H[D] = F`` by conjugate gradients.
    Members whose bound is already below ``tol`` freeze, so their step is
    not solved (``D = 0``).
    """
    eb, vb, bad = _frame_spectra(s, a)
    lb = np.log(eb)
    pc = p[:, None, None]
    f = np.divide(np.expm1(pc * lb), pc, out=lb.copy(), where=pc != 0)
    # F = sum_i V_i diag(w_i phi_i) V_i^T as one rebuild over the n spectra side by side
    _, n, d = f.shape
    res = _rebuild(np.swapaxes(vb, -3, -2).reshape(-1, d, n * d), (f * w[..., None]).reshape(-1, n * d))
    resid = np.sqrt(np.sum(res * res, axis=(-2, -1)))
    resid[bad] = np.inf
    karcher = p == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(karcher, resid, -np.log1p(-np.minimum(p * resid, 1.0)) / np.where(karcher, 1.0, p))
    bound += rounding
    g, v = np.zeros((len(f), d)), np.broadcast_to(np.eye(d), (len(f), d, d)).copy()
    step = bound >= tol
    if step.any():
        kern = _newton_kernel(p[step], lb[step]) * w[step][..., None, None]
        g[step], v[step] = np.linalg.eigh(_newton_step(res[step], resid[step], vb[step], kern))
    return g, v, np.abs(lb).max(axis=(-2, -1)), resid, bound


def _newton_kernel(p, lb):
    """``K_i[j, k] = (lam_j + lam_k) / 2 * (phi(lam_j) - phi(lam_k)) / (lam_j - lam_k)`` from ``log lam``.

    With ``h = (log lam_j - log lam_k) / 2`` it is ``h / tanh h`` for
    ``phi = log`` and ``(lam_j lam_k)^{p/2} sinh(p h) / (p tanh h)`` for
    ``phi(t) = (t^p - 1) / p``: no cancellation as ``lam_j -> lam_k``, where
    it tends to ``1`` and ``lam^p``.
    """
    h = 0.5 * (lb[..., :, None] - lb[..., None, :])
    ph = p[:, None, None, None] * h
    num = h * np.divide(np.sinh(ph), ph, out=np.ones_like(ph), where=ph != 0)
    half = np.exp(0.5 * p[:, None, None] * lb)[..., None]
    ratio = np.divide(num, np.tanh(h), out=np.ones_like(h), where=h != 0)
    return ratio * half * half.swapaxes(-1, -2)


def _newton_apply(vb, kern, x):
    """``H[x] = sum_i V_i ((V_i^T x V_i) o kern_i) V_i^T`` per member, ``V_i = vb[:, i]``."""
    vbt = vb.swapaxes(-1, -2)
    t = vbt @ x[:, None] @ vb
    t *= kern
    return (vb @ t @ vbt).sum(axis=1)


_CG_FORCING = 0.1  # largest relative residual of a Newton direction


def _newton_step(f, fnorm, vb, kern):
    """Solve ``H[D] = F`` per member by conjugate gradients from ``D = F``; see :func:`_power_frame`.

    ``kern`` holds ``w_i K_i``.  Each member stops at its own relative
    residual ``min(0.1, ||F||_F)``, the forcing term of an inexact Newton
    method that keeps its convergence quadratic (Eisenstat and Walker, SIAM
    J. Sci. Comput. 17 (1996)), or after ``d (d + 1) / 2`` steps, the
    dimension of the symmetric matrices.  One application of ``H`` takes
    four batched ``d x d`` products per input; ``H`` is never formed.  A
    finished member leaves the batch, so its bits do not depend on it.
    """
    d = f.shape[-1]
    x, r = f.copy(), f - _newton_apply(vb, kern, f)
    p, rr = r.copy(), np.sum(r * r, axis=(-2, -1))
    stop = (np.minimum(_CG_FORCING, fnorm) * fnorm) ** 2
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


def _deformed_node(spec, stack, w_over, tol):
    """The deformed mean ``X = base(X sigma A_1, ..., X sigma A_n)`` by :func:`_geodesic_loop`.

    It starts at ``base(A_1, ..., A_n)``, the fixed point when ``sigma`` acts
    as the right trivial mean.  See :func:`_deformed_frame`.
    """
    base, sigma = spec.base, spec.sigma
    batch, a, w = _members(stack, w_over)
    tol = np.broadcast_to(tol, len(a))
    x0, _, _ = _eval_node(base, a, w, tol)
    slope = sigma.derivative_at_one

    def frame(idx):
        ai, wi, ti = a[idx], None if w is None else w[idx], tol[idx]
        return lambda s: _deformed_frame(base, sigma, slope, ai, wi, s, ti)

    return _geodesic_loop(frame, x0, slope, _rounding_floor(a), tol, "deformed-mean", batch)


def _deformed_frame(base, sigma, slope, a, w, s, tol):
    """``(G, eigenvectors of G, max |log eig B_i|, residual, bound)`` at ``S``.

    The frame mean is ``M = base(f(B_1), ..., f(B_n))``: by congruence
    invariance, ``f(X) = base(X sigma A_i)`` seen from ``X``, so ``rho = max
    |log eig M|`` (plus the base's own bound when it is iterative) bounds
    ``d(X, f(X))``, and ``G = log(M) / sigma'(1)``.  ``X -> X sigma A`` is
    Thompson-Lipschitz with rate ``1 - e``, ``e`` the least elasticity ``t
    f'(t) / f(t)`` over the spectrum of ``X^{-1/2} A X^{-1/2}``.  Over the
    ball of radius ``R = 2 rho / e_0`` around ``X`` (``e_0`` taken on the
    spectra of the ``B_i``) those spectra widen by at most ``e^{+-R}``; with
    ``e`` taken there, ``rho / e <= R`` makes ``f`` map the ball into itself,
    so ``X*`` lies in it and ``d(X, X*) <= rho / e``.  Where that fails the
    bound is infinite, and the residual ``rho`` decides the steps.
    """
    eb, vb, bad = _frame_spectra(s, a)
    lo, hi = eb[..., 0].min(axis=-1), eb[..., -1].max(axis=-1)
    e0 = rep_elasticity(sigma, lo, hi)[0]
    # an iterative base is solved well inside each member's tolerance, since its bound adds to rho
    inner = np.where(e0 > 0, 0.25 * tol * e0, tol)
    m, _, base_bound = _eval_node(base, _rebuild(vb, rep_eval(sigma, eb)), w, inner)
    em, vm = np.linalg.eigh(m)
    bad |= em[..., 0] <= 0
    em[bad] = 1.0
    lm = np.log(em)
    rho = np.abs(lm).max(axis=-1) + base_bound
    rho[bad] = np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        widen = np.exp(np.minimum(2.0 * rho / e0, 700.0))
        e = rep_elasticity(sigma, lo / widen, hi * widen)[0]
        bound = np.where((e > 0) & (e >= 0.5 * e0), rho / e, np.inf)
    return lm / slope, vm, np.abs(np.log(eb)).max(axis=(-2, -1)), rho, bound


def _chart_step(lw, lv, g, v):
    """The step ``X -> R exp(G) R`` to first order in the chart ``L = log X``, flattened.

    ``X = lv diag(exp lw) lv^T``, ``R = X^{1/2}`` and ``G = v diag(g) v^T``.
    The Daleckii-Krein formula for the derivative of ``log`` at ``X`` gives
    ``lv [(lv^T G lv) o phi(lw_i - lw_j)] lv^T`` with ``phi(x) = (x / 2) /
    sinh(x / 2)``, no decomposition needed.
    """
    lvt = lv.swapaxes(-1, -2)
    h = lvt @ v
    half = 0.5 * (lw[:, :, None] - lw[:, None, :])  # |half| < 710 for spectra of normal floats
    phi = np.divide(half, np.sinh(half), out=np.ones_like(half), where=half != 0)
    return (lv @ ((h * g[:, None, :]) @ h.swapaxes(-1, -2) * phi) @ lvt).reshape(len(lw), -1)


def _anderson(l, f, hist):
    """Type-II Anderson point ``L + F - (dL + dF) gamma`` per member, flattened.

    ``l`` and ``f`` are ``(k, d*d)``; ``hist`` holds the differences ``dL``
    and ``dF`` between past iterates, ``(k, 2, _DEPTH, d*d)`` with unused
    columns zero.  ``gamma`` minimises ``||F - dF gamma||`` through the Gram
    matrix, regularised relative to its trace, so a zero column gets a zero
    coefficient.
    """
    dl, df = hist[:, 0], hist[:, 1]
    gram = df @ df.swapaxes(-1, -2)
    reg = 1e-10 * (df * df).sum(axis=(-2, -1)) + np.finfo(float).tiny
    gamma = np.linalg.solve(gram + reg[:, None, None] * _EYE, df @ f[:, :, None])
    return l + f - (gamma.swapaxes(-1, -2) @ (dl + df))[:, 0]


def _geodesic_loop(frame, x0, slope, floor, tol, what, batch):
    """Damped geodesic solve of a mean given by its ``frame``.

    Each member's iterate is the eigenpair ``(lw, lv)`` of ``L = log X``,
    starting at ``x0``.  ``frame(members)`` gives the map that returns, at
    ``S = X^{-1/2}`` and with ``B_i = S A_i S``, the step ``G`` (its
    eigenvectors, ``max |log eig B_i|``), a residual that decides the steps
    and the error bound that stops them.  The damped step is ``X <- R
    exp(theta G) R`` with ``R = X^{1/2}``.

    ``slope`` None marks a Newton frame (:func:`_power_frame`): ``G`` is a
    Newton direction, ``theta`` is the member's cap, a full step at cap 1,
    and no Anderson history is kept.  Otherwise the step is ``X <- X
    #_{theta/slope} f(X)`` for the mean's monotone map ``f``; ``theta =
    max(slope, min(cap, 2 / (2 + dmax)))`` follows its curvature, and at
    ``theta = slope`` the step is ``f`` itself.  In the chart it reads ``F
    = theta C`` (:func:`_chart_step`).  A member with a history of ``L`` and
    ``F`` differences tries the Anderson point (Walker and Ni, SIAM J.
    Numer. Anal. 49 (2011), depth ``_DEPTH``) instead of the damped step.

    Every candidate goes through one ``eigh``, and it is accepted only if it
    lowers the residual.  A rejected Anderson point drops the member's
    history, a rejected damped or Newton step halves its cap, an accepted
    step raises it by 1.25.
    An Anderson point whose spectrum leaves ``[min lw - dmax, max lw +
    dmax]`` at ``x0`` is rejected unseen, since the mean lies in ``e^{+-dmax}
    x0``; so is one whose frame is not positive definite.  A member that
    meets ``tol`` is frozen, and all arithmetic is per member, so its
    solution and its iteration count (the loop's count when it froze) do not
    depend on its batch.  A member whose step is rejected while its residual
    is within ``floor`` (the rounding floor of its inputs) is frozen with its
    bound, since its residual is rounding noise; one whose damping collapses
    above it stops the loop.  ``slope``, ``tol`` and ``what`` (names for
    :class:`NoConvergence`) are one value or one per member; it returns
    solutions, counts and bounds per member.
    """
    ew, lv = np.linalg.eigh(x0)
    size, d = ew.shape
    if np.any(ew <= 0):
        raise NoConvergence("geodesic start is not positive definite")
    lw = np.log(ew)
    idx = np.arange(size)  # the members still iterating
    g, v, dmax, resid, bound = frame(idx)(_rebuild(lv, np.exp(-0.5 * lw)))
    if not np.all(np.isfinite(resid)):
        raise NoConvergence("geodesic iterate lost positive definiteness")
    out_w, out_v, out_bound, out_iters = lw.copy(), lv.copy(), bound.copy(), np.zeros(size, dtype=int)
    lo, hi = lw[:, 0] - dmax, lw[:, -1] + dmax  # the spectrum of log X* lies in [lo, hi]
    newton, cap, count = slope is None, np.ones(size), np.zeros(size, dtype=int)
    slope, tol = np.broadcast_to(0.0 if newton else slope, size), np.broadcast_to(tol, size)
    if newton:  # no Anderson history: the chart state is empty
        theta, l = cap, np.zeros((size, 0))
        c = f = l
    else:
        theta = np.maximum(slope, np.minimum(cap, 2.0 / (2.0 + dmax)))
        l, c = _rebuild(lv, lw).reshape(size, -1), _chart_step(lw, lv, g, v)
        f = theta[:, None] * c
    hist = np.zeros((size, 2, _DEPTH, l.shape[1]))
    live, iters = bound >= tol, 0
    while True:
        all_live = live.all()
        if not all_live:  # write out the members that stopped, go on with the rest
            fin = idx[~live]
            out_w[fin], out_v[fin], out_bound[fin], out_iters[fin] = lw[~live], lv[~live], bound[~live], iters
            state = (idx, lw, lv, l, c, f, g, v, dmax, resid, bound, lo, hi, cap, theta, hist, count, slope, tol)
            idx, lw, lv, l, c, f, g, v, dmax, resid, bound, lo, hi, cap, theta, hist, count, slope, tol = (
                x[live] for x in state
            )
        if iters == 0 or not all_live:
            fmap, rows = frame(idx), np.arange(len(idx))
        if not len(idx) or iters == MAX_ITERS:
            break
        iters += 1
        mix = count > 0
        # the all-mix, all-sane and all-ok forks skip masked copies: 17-21% of mean_certified's time
        all_mix = mix.all()
        if all_mix:
            cand = _anderson(l, f, hist).reshape(-1, d, d)
        else:
            k = _rebuild(lv, np.exp(0.5 * lw)) @ (v * np.exp(0.5 * theta[:, None] * g)[:, None, :])
            cand = k @ k.swapaxes(-1, -2)
            if mix.any():
                cand[mix] = _anderson(l[mix], f[mix], hist[mix]).reshape(-1, d, d)
        lw_t, lv_t = np.linalg.eigh(cand)
        sane = (lw_t[:, 0] >= lo) & (lw_t[:, -1] <= hi)
        if not all_mix:  # damped candidates are X, not log X
            plain = ~mix
            sane[plain] = lw_t[plain, 0] > 0
            lw_t[plain] = np.log(np.where(sane[plain, None], lw_t[plain], 1.0))
        if not sane.all():  # evaluate the frame at the current point instead
            lw_t[~sane], lv_t[~sane] = lw[~sane], lv[~sane]
        g_t, v_t, dmax_t, resid_t, bound_t = fmap(_rebuild(lv_t, np.exp(-0.5 * lw_t)))
        ok = sane & (resid_t <= resid)
        all_ok = ok.all()
        cap_t = np.minimum(1.0, 1.25 * cap)
        if newton:
            l_t = c_t = l
        else:
            l_t = cand.reshape(len(idx), -1)
            if not all_mix:
                l_t[plain] = _rebuild(lv_t[plain], lw_t[plain]).reshape(-1, d * d)
            c_t = _chart_step(lw_t, lv_t, g_t, v_t)
        if not all_ok:
            back = ~ok
            cap_t[back] = np.where(mix[back], 1.0, 0.5) * cap[back]
            for new, old in (
                (lw_t, lw), (lv_t, lv), (l_t, l), (c_t, c), (g_t, g), (v_t, v),
                (dmax_t, dmax), (resid_t, resid), (bound_t, bound),
            ):
                new[back] = old[back]
        if newton:
            theta = cap_t
        else:
            theta = np.maximum(slope, np.minimum(cap_t, 2.0 / (2.0 + dmax_t)))
            f_t = theta[:, None] * c_t
            slot = count % _DEPTH
            hist[rows, 0, slot], hist[rows, 1, slot] = l_t - l, f_t - f
            count += 1
            l, c, f = l_t, c_t, f_t
        lw, lv, g, v, cap = lw_t, lv_t, g_t, v_t, cap_t
        dmax, resid, bound = dmax_t, resid_t, bound_t
        live = bound >= tol
        if not all_ok:
            hist[back], count[back] = 0.0, 0
            # past a rejected step, a residual within the floor is rounding noise: accept the bound
            live &= ~(back & (resid <= floor[idx]) & np.isfinite(bound))
            if np.any(live & (cap < 1e-8)):
                break
    if len(idx):
        out_w[idx], out_v[idx] = lw, lv
    x = _rebuild(out_v, np.exp(out_w)).reshape(batch + (d, d))
    if len(idx):
        what = np.broadcast_to(what, size)
        members = [
            {"member": int(i), "what": str(what[i]), "bound": float(b), "residual": float(rho)}
            for i, b, rho in zip(idx, bound, resid)
        ]
        named = ", ".join(f"{m['member']} ({m['what']}, bound {m['bound']:.3e})" for m in members[:5])
        msg = f"geodesic iteration stopped above its tolerance after {iters} steps; {len(idx)} live: {named}"
        raise NoConvergence(msg + (", ..." if len(idx) > 5 else ""), x, float(bound.max()), members)
    return x, out_iters.reshape(batch), out_bound.reshape(batch)


def eval_mean_stack(
    spec: MultiMeanSpec, stack: np.ndarray, weights_override=None, *, certify: bool = True
) -> StackResult:
    """Evaluate ``spec`` on stacked ensembles of shape ``(..., n, d, d)``.

    ``weights_override`` (shape ``(n,)`` or ``(..., n)``) substitutes the
    weight vector at every weighted node, which is how campaigns run many
    random weightings through one batched solve.  Iterative solves stop at
    ``DT_TOL``; a Karcher mean is also certified unless ``certify`` is off.
    That is one loop call on ``[A]`` at exponent 0 and ``[A]``, ``[A^{-1}]`` at
    ``KARCHER_ALPHA``; members freeze on their own, so only the gap differs.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim < 3 or stack.shape[-1] != stack.shape[-2]:
        raise DimensionMismatch(f"expected shape (..., n, d, d), got {stack.shape}")
    n, certified = stack.shape[-3], spec.kind == "karcher" and certify
    if not certified or n == 1:
        vals, iters, bound = _eval_node(spec, stack, weights_override)
        gap = np.zeros(np.shape(bound)) if certified else None
    else:
        w = _node_weights(spec, weights_override, n)
        a = np.broadcast_to(stack, np.broadcast_shapes(stack.shape[:-3], w.shape[:-1]) + stack.shape[-3:])
        t, size = KARCHER_ALPHA, int(np.prod(a.shape[:-3]))
        p = np.repeat([0.0, t, t], size)
        what = np.repeat(["Karcher", f"enclosure end P_{t}", f"enclosure end P_-{t}"], size)
        x, iters, bound = _power_loop(w, p, np.stack([a, a, spd_inv(a)]), DT_TOL, what)
        vals, iters, bound, gap = x[0], iters[0], bound[0], _certify_karcher(x[0], x[1], spd_inv(x[2]))
    iters = int(np.max(iters, initial=0))
    return StackResult(values=vals, iterations=iters, residual_dt=np.asarray(bound), enclosure_gap=gap)


def _certify_karcher(vals, upper, lower):
    """Assert ``lower <= vals <= upper`` for a Karcher solve and its power-mean enclosure; return its width.

    ``P_{-t} <= G <= P_t`` with ``t = KARCHER_ALPHA``; the ends solve a
    different equation from ``G``, in the same loop call (see
    :func:`eval_mean_stack`), the lower one through ``P_{-t}(A) =
    P_t(A^{-1})^{-1}``.
    """
    vals_norm = op_norm(vals)
    up_margin = order_margin(vals, upper, vals_norm)
    lo_margin = order_margin(lower, vals, hi_norm=vals_norm)
    if np.any(up_margin < -CHECK_TOL) or np.any(lo_margin < -CHECK_TOL):
        raise CertificationFailure(
            "Karcher solve escaped its power-mean enclosure "
            f"(margins {float(np.min(up_margin)):.3e}, {float(np.min(lo_margin)):.3e})"
        )
    return thompson(lower, upper)


# --------------------------------------------------------------------------
# typed API
# --------------------------------------------------------------------------


def _as_stack(As: Sequence[SpdMatrix]):
    if not As:
        raise ArityMismatch("need at least one matrix")
    dim = As[0].dim
    for m in As:
        if m.dim != dim:
            raise DimensionMismatch(f"mixed dimensions {dim} and {m.dim}")
    return np.stack([m.a for m in As])


def _wrap(result: StackResult) -> MeanResult:
    gap = result.enclosure_gap
    return MeanResult(
        value=SpdMatrix(dim=result.values.shape[-1], entries=result.values),
        iterations=int(result.iterations),
        residual_dt=float(np.max(result.residual_dt)),
        enclosure_gap=None if gap is None else float(np.max(gap)),
    )


def eval_mean(spec: MultiMeanSpec, As: Sequence[SpdMatrix], *, certify: bool = True) -> MeanResult:
    """Evaluate any mean description on a list of SPD matrices; see :func:`eval_mean_stack`."""
    return _wrap(eval_mean_stack(spec, _as_stack(As), certify=certify))


def elementary_mean(kind: str, w: Weights, As: Sequence[SpdMatrix]) -> SpdMatrix:
    """Weighted arithmetic or harmonic mean (closed forms)."""
    if kind not in ("arithmetic", "harmonic"):
        raise UnknownKind(f"elementary mean must be arithmetic or harmonic, got {kind!r}")
    spec = MultiMeanSpec.arithmetic(w) if kind == "arithmetic" else MultiMeanSpec.harmonic(w)
    return eval_mean(spec, As).value


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
        raise ValueError("direction must be 'lower' or 'upper'")
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
