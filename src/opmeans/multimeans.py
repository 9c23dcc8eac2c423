"""n-variable matrix means: elementary, deformed, power, Karcher, adjoint.

The deformed mean of a base mean ``M`` by a two-variable mean ``sigma`` is
the unique fixed point of ``X = M(X sigma A_1, ..., X sigma A_n)``, computed
by the monotone iteration started at ``delta^{-1} I`` (which dominates the
fixed point, so the iterates decrease in the positive semidefinite order,
and the step size contracts in the Thompson metric).  Power means and the
Karcher mean share one damped geodesic iteration that stops on a true error
bound; a Karcher solve is certified by the power-mean enclosure
``P_{-t} <= G <= P_t``, whose ends solve a different equation.

All solvers run on stacked operands of shape ``(..., n, d, d)`` and
broadcast over the leading axes, which is what makes large randomized
verification campaigns cheap; the typed API wraps the single-ensemble case.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import (
    AlphaZero,
    ArityMismatch,
    CertificationFailure,
    DimensionMismatch,
    HypothesisFails,
    InvalidWeights,
    MissingParameter,
    NoConvergence,
    SigmaIsLeftTrivial,
    UnknownKind,
)
from .meanfns import RepFnSpec, rep_eval, repfn_from_json, repfn_to_json
from .psd_core import (
    LoewnerVerdict,
    SpdMatrix,
    _rebuild,
    congruence,
    eigh_apply,
    lambda_min,
    loewner_compare,
    op_norm,
    spd_inv,
    spd_sqrt_pair,
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

_MONO_TOL = 1e-9
_MEAN_KINDS = ("arithmetic", "harmonic", "deformed", "power", "karcher", "adjoint")
_MEAN_PARTS = {"deformed": ("base", "sigma"), "adjoint": ("inner",)}  # required sub-descriptions


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
        if self.kind not in _MEAN_KINDS:
            raise UnknownKind(f"unknown mean kind {self.kind!r}")
        if self.kind == "power":
            if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
                raise MissingParameter(f"power mean needs a numeric alpha, got {self.alpha!r}")
            if self.alpha == 0:
                raise AlphaZero("power mean exponent must be nonzero")
            if not -1 <= self.alpha <= 1:
                raise AlphaZero(f"power mean exponent must lie in [-1, 1], got {self.alpha}")
        missing = [part for part in _MEAN_PARTS.get(self.kind, ()) if getattr(self, part) is None]
        if missing:
            raise MissingParameter(f"{self.kind} mean needs {' and '.join(missing)}")
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
    """``residual_dt`` bounds the Thompson error of power and Karcher means (0 for
    closed forms); a general deformed mean reports its last step, not a bound."""

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
    """Batched outcome over the leading axes; ``residual_dt`` per member, as in :class:`MeanResult`."""

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


def _eval_node(spec: MultiMeanSpec, stack, cfg: SolverConfig, w_over=None):
    """Evaluate a mean on ``stack`` of shape (..., n, d, d).

    Returns ``(values, iterations, residual)`` with the per-member residual
    of :class:`MeanResult` (an error bound, or a deformed mean's last step).
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
        w = _node_weights(spec, w_over, n)
        return _weighted_sum(w, stack), 0, zeros
    if kind == "harmonic":
        w = _node_weights(spec, w_over, n)
        return spd_inv(_weighted_sum(w, spd_inv(stack))), 0, zeros
    if kind == "adjoint":
        vals, iters, step = _eval_node(spec.inner, spd_inv(stack), cfg, w_over)
        return spd_inv(vals), iters, step
    if kind == "power":
        return _power_node(spec, stack, cfg, w_over)
    if kind == "karcher":
        return _geodesic_loop(_node_weights(spec, w_over, n), 0.0, stack, cfg)
    # deformed
    return _deformed_loop(spec.base, spec.sigma, stack, cfg, w_over)


def _power_node(spec, stack, cfg, w_over):
    w = _node_weights(spec, w_over, stack.shape[-3])
    if spec.alpha > 0:
        return _geodesic_loop(w, spec.alpha, stack, cfg)
    # P_{-t}(A) = P_t(A^{-1})^{-1}, and the Thompson bound is inversion invariant
    vals, iters, bound = _geodesic_loop(w, -spec.alpha, spd_inv(stack), cfg)
    return spd_inv(vals), iters, bound


def _deformed_loop(base: MultiMeanSpec, sigma: RepFnSpec, stack, cfg, w_over=None):
    if sigma.acts_right_trivial:
        vals, iters, _ = _eval_node(base, stack, cfg, w_over)
        return vals, max(iters, 1), np.zeros(stack.shape[:-3])

    d = stack.shape[-1]
    eye = np.eye(d)
    eigs = np.linalg.eigvalsh(stack)
    lam_lo = eigs[..., 0].min(axis=-1)
    lam_hi = eigs[..., -1].max(axis=-1)
    delta = np.minimum(1.0, np.minimum(lam_lo, 1.0 / lam_hi))
    delta = np.maximum(delta, cfg.delta_floor)
    x = (1.0 / delta)[..., None, None] * eye

    sigma_fn = lambda t: rep_eval(sigma, t)  # noqa: E731 - tight capture
    step = None
    for k in range(1, cfg.max_iters + 1):
        xh, xih = spd_sqrt_pair(x)
        w_blocks = congruence(xih[..., None, :, :], stack)
        f_blocks = eigh_apply(w_blocks, sigma_fn)
        z, _, _ = _eval_node(base, f_blocks, cfg, w_over)
        zw = np.linalg.eigvalsh(z)
        if np.max(zw[..., -1]) > 1.0 + _MONO_TOL:
            raise NoConvergence(
                "monotone descent violated; the base mean broke the fixed-point "
                f"contract at iteration {k}",
                last_iterate=x,
                residual=float(np.max(zw[..., -1]) - 1.0),
            )
        lzw = np.log(np.maximum(zw, 1e-300))
        step = np.maximum(np.abs(lzw[..., 0]), np.abs(lzw[..., -1]))
        x = congruence(xh, z)
        if np.all(step < cfg.dt_tol):
            return x, k, step
    raise NoConvergence(
        f"deformed-mean iteration did not converge in {cfg.max_iters} steps",
        last_iterate=x,
        residual=float(np.max(step)),
    )


def _geodesic_frame(w, p, a, s):
    """``(eig G, eigenvectors of G, max |log eig B_i|, bound)`` at ``S``; see :func:`_geodesic_loop`."""
    eb, vb = np.linalg.eigh(congruence(s[..., None, :, :], a))
    if np.any(eb <= 0):
        raise NoConvergence("geodesic iterate lost positive definiteness")
    lb = np.log(eb)
    f = w[..., None] * (lb if p == 0 else np.exp(p * lb))
    # sum_i V_i diag(f_i) V_i^T as one rebuild over the n spectra side by side
    _, n, d = f.shape
    em, vm = np.linalg.eigh(_rebuild(np.swapaxes(vb, -3, -2).reshape(-1, d, n * d), f.reshape(-1, n * d)))
    g = em if p == 0 else np.log(em) / p
    bound = np.sqrt(np.sum(g * g, axis=-1)) if p == 0 else np.abs(g).max(axis=-1)
    return g, vm, np.abs(lb).max(axis=(-2, -1)), bound


def _geodesic_loop(w, p, stack, cfg):
    """Damped geodesic solve of ``P_p`` (``0 < p <= 1``) or Karcher (``p = 0``).

    ``X = (S S^T)^{-1}`` starts at the weighted arithmetic mean.  With ``B_i =
    S^T A_i S`` and ``G = log(sum_i w_i B_i^p) / p`` (``sum_i w_i log B_i`` at
    ``p = 0``), it steps ``S <- S exp(-theta G / 2)``.  For ``p > 0`` that is
    ``X <- X #_{theta/p} f(X)`` with the monotone map ``f(X) = sum_i w_i X #_p
    A_i``, a Thompson contraction of rate ``1 - p``, so ``max |eig G| = d(X,
    f(X)) / p`` bounds ``d(X, X*)``.  At ``p = 0`` it is Riemannian gradient
    descent on the 1-strongly convex ``1/2 sum_i w_i delta_R(X, A_i)^2``, and
    ``||G||_F`` bounds ``delta_R(X, G*)``, hence the Thompson error.  ``theta =
    max(p, min(cap, 2 / (2 + dmax)))`` follows its curvature; a step that does
    not lower the bound halves the member's cap, an accepted one raises it by
    1.25.  A member that meets ``cfg.dt_tol`` is frozen, so its solution does
    not depend on its batch; one whose damping collapses is accepted with its
    bound if that is within ``16 eps kappa`` (its inputs' spectral spread).
    """
    batch, (n, d) = np.broadcast_shapes(stack.shape[:-3], np.shape(w)[:-1]), stack.shape[-3:-1]
    a = np.broadcast_to(stack, batch + (n, d, d)).reshape(-1, n, d, d)
    w = np.broadcast_to(w, batch + (n,)).reshape(-1, n)
    eigs = np.linalg.eigvalsh(a)
    floor = 16 * np.finfo(float).eps * eigs[..., -1].max(axis=-1) / eigs[..., 0].min(axis=-1)
    r, s = spd_sqrt_pair(_weighted_sum(w, a))  # X = R^T R, S = R^{-1}
    g, v, dmax, bound = _geodesic_frame(w, p, a, s)
    cap, done, iters = np.ones(len(a)), bound < cfg.dt_tol, 0
    while not done.all() and iters < cfg.max_iters:
        iters += 1
        act = np.flatnonzero(~done)
        half = 0.5 * np.maximum(p, np.minimum(cap[act], 2.0 / (2.0 + dmax[act])))[:, None] * g[act]
        s_try, r_try = s[act] @ _rebuild(v[act], np.exp(-half)), _rebuild(v[act], np.exp(half)) @ r[act]
        g_t, v_t, dmax_t, bound_t = _geodesic_frame(w[act], p, a[act], s_try)
        ok = bound_t <= bound[act]
        hit = act[ok]
        s[hit], r[hit], g[hit], v[hit] = s_try[ok], r_try[ok], g_t[ok], v_t[ok]
        dmax[hit], bound[hit] = dmax_t[ok], bound_t[ok]
        cap[act] = np.where(ok, np.minimum(1.0, 1.25 * cap[act]), 0.5 * cap[act])
        done[hit] = bound_t[ok] < cfg.dt_tol
        stuck = act[cap[act] < 1e-8]
        if np.any(bound[stuck] > floor[stuck]):
            break
        done[stuck] = True
    x = congruence(r, np.eye(d)).reshape(batch + (d, d))
    if not done.all():
        msg = f"{'Karcher' if p == 0 else 'power-mean'} iteration stopped above its tolerance after {iters} steps"
        raise NoConvergence(msg, last_iterate=x, residual=float(bound[~done].max()))
    return x, iters, bound.reshape(batch)


def eval_mean_stack(
    spec: MultiMeanSpec,
    stack: np.ndarray,
    cfg: SolverConfig = DEFAULT_CONFIG,
    weights_override=None,
) -> StackResult:
    """Evaluate ``spec`` on stacked ensembles of shape ``(..., n, d, d)``.

    ``weights_override`` (shape ``(n,)`` or ``(..., n)``) substitutes the
    weight vector at every weighted node, which is how campaigns run many
    random weightings through one batched solve.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim < 3 or stack.shape[-1] != stack.shape[-2]:
        raise DimensionMismatch(f"expected shape (..., n, d, d), got {stack.shape}")
    gap = None
    vals, iters, step = _eval_node(spec, stack, cfg, weights_override)
    if spec.kind == "karcher" and cfg.certify:
        w = _node_weights(spec, weights_override, stack.shape[-3])
        gap = _certify_karcher(w, stack, vals, cfg)
    return StackResult(values=vals, iterations=iters, residual_dt=np.asarray(step), enclosure_gap=gap)


def _certify_karcher(w, stack, vals, cfg):
    """Assert the power-mean enclosure around a Karcher solve; return its width.

    ``P_{-t} <= G <= P_t`` with ``t = cfg.karcher_alpha``.  Both ends come
    from one batched fixed-point solve at ``+t``: the upper end on ``stack``
    and the lower end through ``P_{-t}(A) = P_t(A^{-1})^{-1}`` on the
    inverses, stacked along a new leading axis.
    """
    ends, _, _ = _geodesic_loop(w, cfg.karcher_alpha, np.stack([stack, spd_inv(stack)]), cfg)
    upper, lower = ends[0], spd_inv(ends[1])
    scale = op_norm(upper) + op_norm(vals)
    tol = 1e-9
    up_margin = lambda_min(upper - vals) / scale
    lo_margin = lambda_min(vals - lower) / scale
    if np.any(up_margin < -tol) or np.any(lo_margin < -tol):
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


def eval_mean(spec: MultiMeanSpec, As: Sequence[SpdMatrix], cfg: SolverConfig = DEFAULT_CONFIG) -> MeanResult:
    """Evaluate any mean description on a list of SPD matrices."""
    return _wrap(eval_mean_stack(spec, _as_stack(As), cfg))


def elementary_mean(kind: str, w: Weights, As: Sequence[SpdMatrix]) -> SpdMatrix:
    """Weighted arithmetic or harmonic mean (closed forms)."""
    if kind not in ("arithmetic", "harmonic"):
        raise UnknownKind(f"elementary mean must be arithmetic or harmonic, got {kind!r}")
    spec = MultiMeanSpec.arithmetic(w) if kind == "arithmetic" else MultiMeanSpec.harmonic(w)
    return eval_mean(spec, As).value


def deformed_mean(
    base: MultiMeanSpec,
    sigma: RepFnSpec,
    As: Sequence[SpdMatrix],
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> MeanResult:
    """Fixed point of ``X = base(X sigma A_1, ..., X sigma A_n)``."""
    return _wrap(eval_mean_stack(MultiMeanSpec.deformed(base, sigma), _as_stack(As), cfg))


def power_mean(w: Weights, alpha: float, As: Sequence[SpdMatrix], cfg: SolverConfig = DEFAULT_CONFIG) -> MeanResult:
    return _wrap(eval_mean_stack(MultiMeanSpec.power(w, alpha), _as_stack(As), cfg))


def karcher_mean(w: Weights, As: Sequence[SpdMatrix], cfg: SolverConfig = DEFAULT_CONFIG) -> MeanResult:
    """Solve the defining equation of the multivariate geometric mean.

    The returned result is certified (unless ``cfg.certify`` is off) by the
    power-mean pair at exponents ``+-cfg.karcher_alpha``, an enclosure that
    is computed by a different solver route than the solution itself;
    ``enclosure_gap`` is the Thompson width of that certificate.
    """
    return _wrap(eval_mean_stack(MultiMeanSpec.karcher(w), _as_stack(As), cfg))


def adjoint_eval(spec: MultiMeanSpec, As: Sequence[SpdMatrix], cfg: SolverConfig = DEFAULT_CONFIG) -> MeanResult:
    """Evaluate the adjoint of ``spec``: the mean of the inverses, inverted."""
    return _wrap(eval_mean_stack(MultiMeanSpec.adjoint(spec), _as_stack(As), cfg))


def comparison_bound(
    base: MultiMeanSpec,
    sigma: RepFnSpec,
    As: Sequence[SpdMatrix],
    Y: SpdMatrix,
    direction: str,
    cfg: SolverConfig = DEFAULT_CONFIG,
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
    yh, yih = spd_sqrt_pair(Y.a)
    blocks = congruence(yih, stack)
    f_blocks = eigh_apply(blocks, lambda t: rep_eval(sigma, t))
    z, _, _ = _eval_node(base, f_blocks, cfg)
    fy = SpdMatrix(dim=Y.dim, entries=congruence(yh, z))
    premise = loewner_compare(Y, fy)
    ok = premise.holds_le if direction == "lower" else premise.holds_ge
    if not ok:
        raise HypothesisFails(
            f"premise Y {'<=' if direction == 'lower' else '>='} base(Y sigma A_j) "
            f"fails with margin {premise.margin:.3e}"
        )
    target = deformed_mean(base, sigma, As, cfg).value
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
    if kind not in _MEAN_KINDS:
        raise UnknownKind(f"unknown mean kind {kind!r}")
    weights = Weights(obj["weights"]) if "weights" in obj else None
    return MultiMeanSpec(
        kind=kind,
        weights=weights,
        alpha=obj.get("alpha"),
        base=meanspec_from_json(obj["base"]) if "base" in obj else None,
        sigma=repfn_from_json(obj["sigma"]) if "sigma" in obj else None,
        inner=meanspec_from_json(obj["inner"]) if "inner" in obj else None,
    )
