"""Two-variable operator means through their representing functions.

A normalized operator monotone function ``f`` on ``(0, inf)`` with
``f(1) = 1`` determines a binary matrix mean via

    ``A sigma B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}``.

This module keeps ``f`` symbolic: a catalog entry (trivial, weighted
arithmetic / harmonic / geometric, or a convex combination) plus an ordered
stack of transforms (adjoint, transpose, inner / outer power maps).  A spec
compiles once to one vectorized evaluator over numpy arrays, so matrix
functional calculus and dense scalar grids share one code path.

The scalar solver :func:`deformed_rep` computes the representing function
of the deformed mean ``tau_sigma`` (the unique fixed point of
``x = (x sigma 1) tau (x sigma t)``) on the bracket ``[min(1, t), max(1, t)]``
by ITP (Oliveira and Takahashi, 2020): false position in ``log x``,
truncated towards the midpoint and projected so that no element takes more
than two evaluations beyond bisection's count, to a bracket 4 eps wide; this
is how two-variable deformed means are evaluated on matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    MissingParameter,
    NoConvergence,
    SigmaIsLeftTrivial,
    UnknownKind,
)
from .psd_core import Spectral, SpdMatrix, pair_frame, sym

__all__ = [
    "RepFnSpec",
    "Transform",
    "MarginReport",
    "left_trivial",
    "right_trivial",
    "arithmetic",
    "harmonic",
    "geometric",
    "convex_combo",
    "arithmetic_harmonic_mix",
    "rep_eval",
    "rep_elasticity",
    "rep_transform",
    "two_var_mean",
    "two_var_deformed_mean",
    "deformed_rep",
    "pmi_margin",
    "condition_vi_margin",
    "DEFAULT_X_GRID",
    "DEFAULT_R_GRID",
    "repfn_to_json",
    "repfn_from_json",
]

_KINDS = ("left_trivial", "right_trivial", "arithmetic", "harmonic", "geometric", "convex")
_POWER_OPS = ("power_inner", "power_inner_outer", "power_outer")
_TRANSFORM_OPS = ("adjoint", "transpose", *_POWER_OPS)


@dataclass(frozen=True)
class Transform:
    op: str
    r: float | None = None

    def __post_init__(self):
        if self.op not in _TRANSFORM_OPS:
            raise UnknownKind(f"unknown transform {self.op!r}")
        if self.op in _POWER_OPS:
            if self.r is None:
                raise MissingParameter(f"transform {self.op!r} needs a parameter r")
            if not 0 < self.r < np.inf:
                raise DomainError(f"transform {self.op!r} needs a finite r > 0, got {self.r}")
            if self.op == "power_outer" and not self.r <= 1:
                raise DomainError(f"power_outer keeps operator monotonicity only for r <= 1, got {self.r}")


@dataclass(frozen=True)
class RepFnSpec:
    """A representing function: catalog entry plus transform stack.

    ``params`` is kind-specific: ``(w,)`` for arithmetic, ``(alpha,)`` for
    harmonic / geometric, a tuple of ``(weight, RepFnSpec)`` pairs for
    convex combinations, ``()`` for the trivial means.
    """

    kind: str
    params: tuple = ()
    transforms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnknownKind(f"unknown representing-function kind {self.kind!r}")
        if self.kind in ("arithmetic", "harmonic", "geometric"):
            (p,) = self.params
            if not 0 <= p <= 1:
                raise DomainError(f"{self.kind} parameter must lie in [0, 1], got {p}")
        if self.kind == "convex":
            weights = np.array([w for w, _ in self.params], dtype=float)
            if not np.all(weights >= 0) or abs(weights.sum() - 1.0) > 1e-12:
                raise DomainError("convex combination weights must be nonnegative and sum to 1")

    @cached_property
    def evaluator(self):
        """The function compiled to a closure over arrays of ``t > 0``, unchecked; see :func:`_compile`."""
        return _compile(self)

    def __getstate__(self):
        # the compiled evaluator is a closure, so it is left out and rebuilt on first use
        return {k: v for k, v in self.__dict__.items() if k != "evaluator"}

    @cached_property
    def derivative_at_one(self) -> float:
        """``f'(1)``, which is the elasticity at 1 since ``f(1) = 1``."""
        return float(rep_elasticity(self, 1.0, 1.0)[0])

    @property
    def is_left_trivial(self) -> bool:
        # A transform stack never turns a nontrivial mean into the left
        # trivial one, and maps the trivial pair onto itself; checking the
        # value profile is still the robust test.
        probe = rep_eval(self, np.array([0.5, 2.0]))
        return bool(np.all(np.abs(probe - 1.0) < 1e-14))

    @property
    def acts_right_trivial(self) -> bool:
        """True when the mean acts as the right trivial one, ``A sigma B = B``."""
        probe = rep_eval(self, np.array([0.5, 2.0]))
        return bool(np.allclose(probe, [0.5, 2.0], rtol=0, atol=1e-14))


@dataclass(frozen=True)
class MarginReport:
    worst_margin: float
    worst_point: tuple
    grid_size: int


# --------------------------------------------------------------------------
# catalog constructors
# --------------------------------------------------------------------------


def left_trivial() -> RepFnSpec:
    return RepFnSpec("left_trivial")


def right_trivial() -> RepFnSpec:
    return RepFnSpec("right_trivial")


def arithmetic(w: float) -> RepFnSpec:
    """Weighted arithmetic mean, f(x) = 1 - w + w x."""
    return RepFnSpec("arithmetic", (float(w),))


def harmonic(alpha: float) -> RepFnSpec:
    """Weighted harmonic mean, f(x) = (1 - alpha + alpha/x)^{-1}."""
    return RepFnSpec("harmonic", (float(alpha),))


def geometric(alpha: float) -> RepFnSpec:
    """Weighted geometric mean, f(x) = x^alpha."""
    return RepFnSpec("geometric", (float(alpha),))


def convex_combo(terms) -> RepFnSpec:
    """Convex combination sum w_i f_i of representing functions."""
    return RepFnSpec("convex", tuple((float(w), spec) for w, spec in terms))


def arithmetic_harmonic_mix(weight_on_arithmetic: float = 0.25) -> RepFnSpec:
    """Blend of the symmetric arithmetic and harmonic means.

    At the default weight 1/4 this is the classical witness of a mean whose
    representing function satisfies the tangent-line condition
    ``f(x^r) >= r f(x) - r + 1`` for all ``r >= 1`` while failing power
    monotonicity ``f(x^r) >= f(x)^r``.
    """
    w = float(weight_on_arithmetic)
    return convex_combo([(w, arithmetic(0.5)), (1.0 - w, harmonic(0.5))])


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def _compile(spec: RepFnSpec):
    """``spec``'s representing function as one closure, built once per spec.

    The catalog entry is the innermost function and each transform wraps the
    one before it, so the last transform is applied outermost.  The closure
    checks nothing: :func:`rep_eval` checks the domain before it calls it.
    """
    kind, params = spec.kind, spec.params
    if kind == "left_trivial":
        fn = np.ones_like
    elif kind == "right_trivial":
        fn = _identity
    elif kind == "arithmetic":
        fn = partial(_arithmetic, 1.0 - params[0], params[0])
    elif kind == "harmonic":
        fn = partial(_harmonic, 1.0 - params[0], params[0])
    elif kind == "geometric":
        fn = partial(_geometric, params[0])
    else:
        fn = partial(_convex, tuple((w, sub.evaluator) for w, sub in params))
    for tr in spec.transforms:
        fn = partial(_TRANSFORMS[tr.op], fn, tr.r)
    return fn


def _identity(t):
    return t


def _arithmetic(c, w, t):  # 1 - w + w t, with c = 1 - w
    return c + w * t


def _harmonic(c, a, t):  # (1 - a + a / t)^{-1}, with c = 1 - a
    return 1.0 / (c + a / t)


def _geometric(a, t):
    return t**a


def _convex(terms, t):
    out = np.zeros_like(t)
    for w, fn in terms:
        out += w * fn(t)
    return out


_TRANSFORMS = {
    "adjoint": lambda f, r, t: 1.0 / f(1.0 / t),
    "transpose": lambda f, r, t: t * f(1.0 / t),
    "power_inner": lambda f, r, t: f(t**r),
    "power_inner_outer": lambda f, r, t: f(t**r) ** (1.0 / r),
    "power_outer": lambda f, r, t: f(t) ** r,
}


def rep_eval(spec: RepFnSpec, t):
    """Evaluate the representing function at ``t > 0`` (scalar or ndarray)."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("representing functions are defined on (0, inf)")
    out = spec.evaluator(arr)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def rep_elasticity(spec: RepFnSpec, lo, hi):
    """Bounds ``(e_lo, e_hi)`` on the elasticity ``t f'(t) / f(t)`` over ``lo <= t <= hi``.

    Every catalog entry has a monotone elasticity and every transform maps an
    interval of ``t`` to an interval and the elasticity affinely, so the
    bounds are exact for a transformed catalog entry.  A convex combination's
    elasticity is the average of its terms' weighted by ``w_i f_i``, so it
    lies within their extremes; where every term is increasing (and at a
    single point, exactly) it also lies between ``sum_i w_i f_i(lo) e_i /
    sum_i w_i f_i(hi)`` at the terms' lower bounds and the mirror image at
    their upper bounds, and the tighter bound is used.  Vectorized over
    ``lo`` and ``hi``.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _elasticity(spec, spec.transforms, lo, hi)


def _elasticity(spec, stack, lo, hi):
    if not stack:
        return _base_elasticity(spec, lo, hi)
    head, tr = stack[:-1], stack[-1]
    if tr.op == "adjoint":  # 1 / f(1/t): e(1/t)
        return _elasticity(spec, head, 1.0 / hi, 1.0 / lo)
    if tr.op == "transpose":  # t f(1/t): 1 - e(1/t)
        e_lo, e_hi = _elasticity(spec, head, 1.0 / hi, 1.0 / lo)
        return 1.0 - e_hi, 1.0 - e_lo
    if tr.op == "power_outer":  # f(t)^r: r e(t)
        e_lo, e_hi = _elasticity(spec, head, lo, hi)
        return tr.r * e_lo, tr.r * e_hi
    # f(t^r): r e(t^r); f(t^r)^{1/r}: e(t^r)
    e_lo, e_hi = _elasticity(spec, head, lo**tr.r, hi**tr.r)
    scale = tr.r if tr.op == "power_inner" else 1.0
    return scale * e_lo, scale * e_hi


def _base_elasticity(spec, lo, hi):
    kind = spec.kind
    lo, hi = np.clip(lo, 1e-300, 1e300), np.clip(hi, 1e-300, 1e300)
    if kind == "arithmetic":  # w t / (1 - w + w t), increasing
        w = spec.params[0]
        return w * lo / (1.0 - w + w * lo), w * hi / (1.0 - w + w * hi)
    if kind == "harmonic":  # a / ((1 - a) t + a), decreasing
        a = spec.params[0]
        return a / ((1.0 - a) * hi + a), a / ((1.0 - a) * lo + a)
    if kind == "convex":
        terms = [(w, sub) for w, sub in spec.params if w > 0]
        bounds = [_elasticity(sub, sub.transforms, lo, hi) for _, sub in terms]
        e_lo = np.min([b[0] for b in bounds], axis=0)
        e_hi = np.max([b[1] for b in bounds], axis=0)
        f_lo = [w * sub.evaluator(lo) for w, sub in terms]
        f_hi = [w * sub.evaluator(hi) for w, sub in terms]
        avg_lo = sum(f * b[0] for f, b in zip(f_lo, bounds)) / sum(f_hi)
        avg_hi = sum(f * b[1] for f, b in zip(f_hi, bounds)) / sum(f_lo)
        # valid where every term is increasing on [lo, hi], as operator means are, and exact at a point
        valid = (e_lo >= 0) | (lo == hi)
        return np.where(valid, np.fmax(e_lo, avg_lo), e_lo), np.where(valid, np.fmin(e_hi, avg_hi), e_hi)
    if kind == "geometric":  # t^a
        e = spec.params[0]
    else:  # the trivial means 1 and t
        e = 0.0 if kind == "left_trivial" else 1.0
    e = np.full(np.shape(lo), e)
    return e, e


def rep_transform(spec: RepFnSpec, op: str, r: float | None = None) -> RepFnSpec:
    """Append a transform to the stack; derivative cache resets with the new object.

    A power map at ``r = 1`` is the identity: it is validated, and ``spec`` itself returned.
    """
    tr = Transform(op, r)
    if op in _POWER_OPS and r == 1:
        return spec
    return RepFnSpec(spec.kind, spec.params, spec.transforms + (tr,))


# --------------------------------------------------------------------------
# matrix means
# --------------------------------------------------------------------------


def _two_var_arrays(fn, a, b):
    """``a sigma b`` for the representing function ``fn`` of ``sigma``, batched."""
    return _frame_mean(fn, pair_frame(Spectral(a), b))


def _frame_mean(fn, frame):
    """``a^{1/2} fn(W) a^{1/2}``: the mean with representing function ``fn``
    of the pair whose :func:`~opmeans.psd_core.pair_frame` is ``frame``, so
    the means of one pair share its decompositions."""
    a_half, w = frame
    return sym(a_half @ w.apply(fn) @ a_half)


def two_var_mean(spec: RepFnSpec, A: SpdMatrix, B: SpdMatrix) -> SpdMatrix:
    """``A sigma B`` through the functional-calculus formula."""
    if A.dim != B.dim:
        raise DimensionMismatch(f"dimensions differ: {A.dim} vs {B.dim}")
    out = _two_var_arrays(lambda w: rep_eval(spec, w), A.a, B.a)
    return SpdMatrix(dim=A.dim, entries=out)


def two_var_deformed_mean(tau: RepFnSpec, sigma: RepFnSpec, A: SpdMatrix, B: SpdMatrix) -> SpdMatrix:
    """``A tau_sigma B``: functional calculus with the solved representing function."""
    if A.dim != B.dim:
        raise DimensionMismatch(f"dimensions differ: {A.dim} vs {B.dim}")
    out = _two_var_arrays(lambda w: deformed_rep(tau, sigma, w), A.a, B.a)
    return SpdMatrix(dim=A.dim, entries=out)


# --------------------------------------------------------------------------
# the scalar deformed mean
# --------------------------------------------------------------------------


_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ITP_N0 = 2  # evaluations an element may take beyond bisection's count
_ITP_K1 = 0.2  # the truncation is k1 w^2 / w_0 in log x


def _deformed_residual(tau, sigma, t, x):
    # F(x)/x - 1 where F(x) = (x sigma 1) tau (x sigma t); zero exactly at
    # the deformed mean's value.  tau and sigma are evaluators of arrays.
    u = sigma(1.0 / x)
    v = sigma(t / x)
    return u * tau(v / u) - 1.0


def deformed_rep(tau: RepFnSpec, sigma: RepFnSpec, t):
    """Representing function of the deformed mean ``tau_sigma`` at ``t``.

    Finds the root of the residual of ``x = (x sigma 1) tau (x sigma t)`` on
    the bracket ``[min(1, t), max(1, t)]``, where it is nonnegative at the
    left end and nonpositive at the right end for operator means, by ITP
    (interpolate, truncate, project: Oliveira and Takahashi, ACM TOMS 47,
    2020).  The first step tries ``tau(t)``, the root when ``sigma`` acts as
    the right trivial mean.  Each later step takes the false-position point
    in ``log x``, moves it ``max(0.2 w^2 / w_0, 4 eps)`` towards the
    log-midpoint (``w`` the bracket's width in ``log x``, ``w_0`` the
    first), and projects it into ``[hi - b, lo + b]``, ``b`` the width
    bisection has after ``k - n0`` halvings when this is step ``k``.  So a
    bracket is never wider than bisection's two steps earlier (``n0 = 2``),
    an element takes at most two evaluations more than bisection would, and
    a smooth residual converges superlinearly.  Each element stops on its own
    once its bracket is ``_ROOT_RTOL`` (4 eps) wide relative to its right
    end, and returns the bracket's midpoint: that close to the root, up to
    the rounding of the residual, which the tests bound by 64 eps against a
    50-digit root.  Only live elements are stepped, and every step is
    elementwise, so an element's bits do not depend on the batch.
    Vectorized over ``t``.

    The bracket ends are evaluated through :func:`rep_eval`, which checks
    every argument of ``sigma`` and ``tau`` there; the steps call the
    compiled evaluators unchecked.  Representing functions are increasing,
    so arguments that lie in ``(0, inf)`` at both ends lie there in between.
    """
    if sigma.is_left_trivial:
        raise SigmaIsLeftTrivial("deformation by the left trivial mean is undefined")
    scalar_in = np.isscalar(t) or np.asarray(t).ndim == 0
    tt = np.asarray(t, dtype=float).ravel()
    if np.any(tt <= 0) or not np.all(np.isfinite(tt)):
        raise DomainError("deformed representing functions are defined on (0, inf)")

    # the bracket is guaranteed for operator means; the guard catches a residual that breaks it
    lo, hi = np.minimum(1.0, tt), np.maximum(1.0, tt)
    checked_tau, checked_sigma = partial(rep_eval, tau), partial(rep_eval, sigma)
    f_lo = _deformed_residual(checked_tau, checked_sigma, tt, lo)
    f_hi = _deformed_residual(checked_tau, checked_sigma, tt, hi)
    if np.any(f_lo < -1e-12) or np.any(f_hi > 1e-12):
        raise NoConvergence("residual bracket invalid for the root solve", last_iterate=0.5 * (lo + hi), residual=None)
    out = 0.5 * (lo + hi)
    live = np.flatnonzero(hi - lo > _ROOT_RTOL * hi)
    if live.size:
        out[live] = _itp(tau.evaluator, sigma.evaluator, tt[live], lo[live], hi[live], f_lo[live], f_hi[live])
    return float(out[0]) if scalar_in else out.reshape(np.shape(t))


def _itp(tau, sigma, t, lo, hi, f_lo, f_hi):
    """The roots of :func:`_deformed_residual` in the brackets ``[lo, hi]``,
    ``f_lo >= 0 >= f_hi`` its values at the ends; see :func:`deformed_rep`.

    The state is one array, a row per quantity and a column per live
    element, so a step updates each end with one masked copy and an element
    that stops leaves with one column selection; its bracket's midpoint
    goes to the result at its index.
    """
    out = np.empty_like(t)
    tiny = np.finfo(float).tiny
    state = np.stack([
        lo, np.maximum(f_lo, tiny),  # the left end and its residual, kept off zero
        hi, np.minimum(f_hi, -tiny),  # the right end
        t,
        _ITP_K1 / np.log(hi / lo),
        # halved before each step: bisection's width n0 halvings back, less
        # 8 eps of it so that rounding at the stop costs no extra step
        (1.0 - 2.0 * _ROOT_RTOL) * 2.0**_ITP_N0 * (hi - lo),
        np.arange(t.size, dtype=float),
    ])
    guess = tau(t)
    while True:
        lo, f_lo, hi, f_hi, t, k1, budget, pos = state
        budget *= 0.5
        if guess is None:  # false position in log x, moved towards the log-midpoint
            lw = np.log(hi / lo)
            e = lw * (f_lo / (f_lo - f_hi) - 0.5)
            delta = np.maximum(k1 * (lw * lw), _ROOT_RTOL)
            guess = lo * np.exp(0.5 * lw + (e - np.minimum(np.maximum(e, -delta), delta)))
        # projected into [hi - budget, lo + budget], which holds the midpoint, and the bracket
        new = np.empty((2, t.size))
        x = np.fmin(np.fmax(guess, np.fmax(lo, hi - budget)), np.fmin(hi, lo + budget), out=new[0])
        new[1] = _deformed_residual(tau, sigma, t, x)
        y, guess = new[1], None
        # a zero residual closes the bracket; NaN moves the right end, as bisection did
        np.copyto(state[:2], new, where=y >= 0)
        np.copyto(state[2:4], new, where=~(y > 0))
        live = hi - lo > _ROOT_RTOL * hi
        if not live.all():
            done = ~live
            out[pos[done].astype(np.intp)] = 0.5 * (lo[done] + hi[done])
            if not live.any():
                return out
            state = state[:, live]


# --------------------------------------------------------------------------
# scalar margin scans
# --------------------------------------------------------------------------


DEFAULT_X_GRID = np.geomspace(1e-3, 1e3, 200)
DEFAULT_R_GRID = np.linspace(1.0, 8.0, 50)
DEFAULT_X_GRID.flags.writeable = DEFAULT_R_GRID.flags.writeable = False


def pmi_margin(spec: RepFnSpec, x_grid=None, r_grid=None) -> MarginReport:
    """Worst value of ``f(x^r) - f(x)^r`` on the grid.

    A negative worst margin proves the function is not power monotone
    increasing; a nonnegative one is evidence only, since the grid is
    finite.
    """
    return _grid_scan(spec, x_grid, r_grid, lambda fx, fxr, r: fxr - fx**r)


def condition_vi_margin(spec: RepFnSpec, x_grid=None, r_grid=None) -> MarginReport:
    """Worst value of ``f(x^r) - r f(x) + r - 1`` on the grid."""
    return _grid_scan(spec, x_grid, r_grid, lambda fx, fxr, r: fxr - r * fx + r - 1.0)


def _grid_scan(spec, x_grid, r_grid, margin) -> MarginReport:
    """The worst of ``margin(f(x), f(x^r), r)`` over the grid of x (rows)
    and r (columns); the grids default to :data:`DEFAULT_X_GRID` and
    :data:`DEFAULT_R_GRID`."""
    x = np.asarray(DEFAULT_X_GRID if x_grid is None else x_grid, dtype=float)
    r = np.asarray(DEFAULT_R_GRID if r_grid is None else r_grid, dtype=float)
    if x.size == 0 or r.size == 0:
        raise DomainError("grids must be nonempty")
    if np.any(x <= 0):
        raise DomainError("x grid must be positive")
    if np.any(r < 1):
        raise DomainError("r grid must lie in [1, inf)")
    values = margin(rep_eval(spec, x)[:, None], rep_eval(spec, x[:, None] ** r[None, :]), r[None, :])
    idx = np.unravel_index(np.argmin(values), values.shape)
    return MarginReport(
        worst_margin=float(values[idx]),
        worst_point=(float(x[idx[0]]), float(r[idx[1]])),
        grid_size=int(values.size),
    )


# --------------------------------------------------------------------------
# wire format
# --------------------------------------------------------------------------


def repfn_to_json(spec: RepFnSpec) -> dict:
    if spec.kind == "convex":
        params = {"terms": [{"weight": w, "fn": repfn_to_json(s)} for w, s in spec.params]}
    elif spec.params:
        key = "w" if spec.kind == "arithmetic" else "alpha"
        params = {key: spec.params[0]}
    else:
        params = {}
    return {
        "kind": spec.kind,
        "params": params,
        "transforms": [{"op": tr.op, **({"r": tr.r} if tr.r is not None else {})} for tr in spec.transforms],
    }


def repfn_from_json(obj) -> RepFnSpec:
    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise UnknownKind(f"representing-function JSON must carry 'kind': {exc}") from exc
    if kind not in _KINDS:
        raise UnknownKind(f"unknown representing-function kind {kind!r}")
    try:
        raw_params = obj.get("params", {})
        if kind == "convex":
            params = tuple(
                (float(term["weight"]), repfn_from_json(term["fn"])) for term in raw_params["terms"]
            )
        elif kind in ("arithmetic", "harmonic", "geometric"):
            key = "w" if kind == "arithmetic" else "alpha"
            if key not in raw_params:
                raise MissingParameter(f"kind {kind!r} needs parameter {key!r}")
            params = (float(raw_params[key]),)
        else:
            params = ()
        transforms = tuple(
            Transform(tr["op"], tr.get("r")) for tr in obj.get("transforms", [])
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MissingParameter(f"malformed {kind!r} representing function: {exc}") from exc
    return RepFnSpec(kind, params, transforms)
