"""Margin-reporting predicates for the power-escalation inequality families.

Each check computes both sides of a matrix inequality, takes the smallest
eigenvalue of the favorable difference, and normalizes it by the combined
spectral scale of the two sides (``psd_core.order_margin``), so a margin
of ``-1e-9`` means the same thing at every dimension and scale.  ``holds``
is ``margin >= -CHECK_TOL`` with the one threshold ``psd_core.CHECK_TOL``.

Family identifiers ("3.9" ... "5.10", "L5.1", "logmaj") are opaque labels
fixed by the report wire format.  :data:`FAMILIES` gives each its r-range,
its mean, built from alpha, with that mean's exponent and alpha domain, its
data layout, the spectrum rule of the bounded families, and its margin
function, one form over the mean: the power bracket, one side of it
(3.9-3.12, 5.4/5.5) or both, modified (3.13/3.14, 4.4-4.9) or in its
Kantorovich reverse (5.8-5.10), or the own forms of 5.3, L5.1 and logmaj.

:func:`run_cell` evaluates one (family, dimension, r, alpha) cell over
seeded trials in one stacked solve; :func:`run_campaign` runs a grid,
sharing trial data and, through one memo per (family, dimension, alpha)
group (:func:`_once`), every solve and decomposition over its r values.
:func:`recheck` runs the cell of a report's witness, and a typed check
(``check_ah_family``, ``check_reverse`` ...) its family's cell on one trial
of :class:`SpdMatrix` inputs, handing in its own mean where it takes one;
one label map names the families of "3.1"-"4.2".  All three share the
validation, the family's margin function and the report builder, which
reads each per-trial constant at the worst trial.  Every solve stops at
``multimeans.DT_TOL`` uncertified, so a report is a function of its inputs.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    BadH,
    BadMode,
    BadR,
    BoundsViolated,
    ConfigError,
    NoConvergence,
    OpmeansError,
    SandwichFails,
    UnknownKind,
)
from .meanfns import (
    RepFnSpec,
    _frame_mean,
    _two_var_arrays,
    arithmetic,
    deformed_rep,
    geometric,
    harmonic,
    rep_eval,
    rep_transform,
    repfn_from_json,
    repfn_to_json,
)
from .multimeans import (
    MultiMeanSpec,
    Weights,
    _as_stack,
    _spec_weights,
    _weighted_sum,
    eval_mean_stack,
)
from .psd_core import (
    CHECK_TOL,
    Spectral,
    SpdMatrix,
    _generators,
    _spd_draws,
    lambda_min,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    order_margin,
    pair_frame,
    random_spd,
    random_spd_stack,
    spd_exp,
    spd_log,
    spd_power,
    spectral_ends,
    sym,
    thompson,
)

__all__ = [
    "CheckReport",
    "Counterexample",
    "FAMILIES",
    "kantorovich",
    "check_ah_family",
    "check_modified",
    "check_two_var",
    "check_implication_equivalence",
    "check_reverse",
    "check_compression_reverse",
    "check_arithmetic_power_reverse",
    "check_log_majorization",
    "lie_trotter_gap",
    "optimality_scan",
    "verify_counterexample",
    "find_reverse_improvement",
    "run_cell",
    "recheck",
    "CampaignConfig",
    "run_campaign",
]

_BOUNDS_TOL = 1e-8  # relative slack of the bounds on a typed check's inputs


# --------------------------------------------------------------------------
# report values
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    inequality_id: str
    holds: bool
    margin: float
    constants: dict
    witness_seed: int
    matrices: Optional[list] = None

    def to_json(self):
        out = {
            "inequality_id": self.inequality_id,
            "holds": bool(self.holds),
            "margin": float(self.margin),
            "constants": {k: _plain(v) for k, v in self.constants.items()},
            "witness_seed": int(self.witness_seed),
        }
        if self.matrices is not None:
            out["matrices"] = self.matrices
        return out


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (np.ndarray, list, tuple)):
        return [_plain(x) for x in v]
    return v


@dataclass(frozen=True)
class Counterexample:
    family_params: tuple
    matrices: tuple
    r: float
    violated_id: str
    violation_margin: float
    epsilon_shift: Optional[float] = None

    def to_json(self):
        return {
            "family_params": [None if p is None else float(p) for p in self.family_params],
            "matrices": [matrix_to_json(m.a) for m in self.matrices],
            "r": float(self.r),
            "violated_id": self.violated_id,
            "violation_margin": float(self.violation_margin),
            "epsilon_shift": self.epsilon_shift,
        }


# --------------------------------------------------------------------------
# the generalized Kantorovich constant
# --------------------------------------------------------------------------


def kantorovich(h, p):
    """Generalized Kantorovich constant ``K(h, p)`` for finite ``h > 1`` and ``p``.

    At ``p = 0`` and ``p = 1`` the singularity is removable and the value is
    1.  ``h^p`` is never formed: ``log K = p g(pL) - q g(qL) - qL - g(L)``
    with ``L = log h``, ``q = p - 1`` and ``g(x) = log(expm1(x) / x) = max(x,
    0) + _log_ratio(x)``.  The ``max`` terms sum to ``L`` times ``q``, ``p q``
    or ``-p`` (p > 1, 0 < p < 1, p < 0), so no large terms cancel, and a
    constant beyond the float range is ``inf``.  Once ``|p|`` or ``|q|``
    exceeds 2, ``q (lr(pL) - lr(qL))`` (``lr = _log_ratio``) is taken from
    the distance ``L`` between ``|pL|`` and ``|qL|`` rather than as a
    difference, which would cancel when ``|p|`` is large and ``h`` near 1.
    Vectorized over ``h``.
    """
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr <= 1.0):
        raise BadH(f"K(h, p) needs h > 1, got min h = {h_arr.min()}")
    if not (np.all(np.isfinite(h_arr)) and math.isfinite(p)):
        raise BadH(f"K(h, p) needs finite h and p, got h = {h}, p = {p}")
    if p in (0, 1):
        out = np.ones_like(h_arr)
        return float(out) if np.isscalar(h) else out
    # K exceeds the float range for every h once |p| > 1e300; the clip keeps p L finite
    p = min(max(p, -1e300), 1e300)
    q = p - 1.0
    logh = np.log(h_arr)
    lead = q if p > 1 else (p * q if p > 0 else -p)
    lr_p = _log_ratio(p * logh)
    big = max(p, -q)
    if big > 2:
        # with a = big L and b = a - L, |q| (lr(a) - lr(b)) is the term, and
        # lr(a) - lr(b) = log(b / a) + log(expm1(-a) / expm1(-b))
        b = (big - 1.0) * logh
        cross = abs(q) * (np.log1p(-1.0 / big) + np.log1p(np.exp(-b) * np.expm1(-logh) / np.expm1(-b)))
    else:
        cross = q * (lr_p - _log_ratio(q * logh))
    log_k = lead * logh + cross + lr_p - _log_ratio(logh)
    # K <= 1 for 0 < p < 1 and K >= 1 otherwise; rounding must not cross 1
    log_k = np.minimum(log_k, 0.0) if 0 < p < 1 else np.maximum(log_k, 0.0)
    with np.errstate(over="ignore"):
        out = np.exp(log_k)
    return float(out) if np.isscalar(h) else out


def _log_ratio(x):
    """``log(-expm1(-|x|) / |x|)``, which is 0 at ``x = 0``."""
    a = np.maximum(np.abs(x), np.finfo(float).tiny)
    return np.log(-np.expm1(-a) / a)


# --------------------------------------------------------------------------
# margin helpers (all batched over leading axes)
# --------------------------------------------------------------------------


def _scaled(pref, x):
    return np.asarray(pref)[..., None, None] * x


def _bracket_margins(mid, x, r, style, k=1.0, ends=None, side=None):
    """Margin of ``lo_pref*x <= mid <= hi_pref*x`` and its two sides, or of its one ``side``.

    ``style='direct'`` places ``lambda_min^{r-1}`` on the lower side and the
    norm on the upper (the r >= 1 displays); ``'complement'`` swaps them (the
    0 < r <= 1 displays and the reverse forms).  ``k`` widens the bracket: a
    Kantorovich constant that divides the lower prefactor and multiplies the
    upper, or the multiplier of the one ``side`` ("lower" or "upper").  The
    sides are :func:`order_margin`s, with ``x`` and ``mid`` decomposed once
    each and each side's norm its prefactor times ``x``'s, from ``ends``, the
    caller's ``spectral_ends(x)`` if it holds them.  The margin comes with
    the sides' margins, or with the one side's prefactor.
    """
    lam, nrm = spectral_ends(x) if ends is None else ends
    lo_end, hi_end = (lam, nrm) if style == "direct" else (nrm, lam)
    mid_norm = op_norm(mid)

    def margin(lower, pref):
        if lower:
            return order_margin(_scaled(pref, x), mid, pref * nrm, mid_norm)
        return order_margin(mid, _scaled(pref, x), mid_norm, pref * nrm)

    if side:
        pref = k * (lo_end if side == "lower" else hi_end) ** (r - 1.0)
        return margin(side == "lower", pref), {"prefactor": pref}
    lo, hi = margin(True, (1.0 / k) * lo_end ** (r - 1.0)), margin(False, k * hi_end ** (r - 1.0))
    return np.minimum(lo, hi), {"lower_margin": lo, "upper_margin": hi}


def _require_r(r, r_range, what):
    """BadR unless r is in ``r_range``: "ge1" is r >= 1, "le1" is 0 < r <= 1."""
    if r_range == "ge1" and r < 1:
        raise BadR(f"{what} needs r >= 1, got {r}")
    if r_range == "le1" and not 0 < r <= 1:
        raise BadR(f"{what} needs 0 < r <= 1, got {r}")


def _check_bounds(stack, m, M):
    lam = np.linalg.eigvalsh(stack)
    slack = _BOUNDS_TOL * max(abs(m), abs(M))
    if np.any(lam[..., 0] < m - slack) or np.any(lam[..., -1] > M + slack):
        raise BoundsViolated(
            f"inputs escape [{m}, {M}]: spectrum spans "
            f"[{lam[..., 0].min():.6g}, {lam[..., -1].max():.6g}]"
        )


# --------------------------------------------------------------------------
# limits and spectra
# --------------------------------------------------------------------------


def lie_trotter_gap(
    spec: MultiMeanSpec,
    As: Sequence[SpdMatrix],
    p_sequence=None,
) -> list:
    """Thompson gaps between ``M(A^p)^{1/p}`` and the log-Euclidean limit.

    The mean must sit between the weighted harmonic and arithmetic means of
    its inputs (checked first); the returned gaps, one per ``p``, shrink to
    zero as ``p`` does.  Each ``p`` must be finite and nonzero (BadR).
    """
    ps = [2.0**-k for k in range(7)] if p_sequence is None else list(p_sequence)
    bad = [p for p in ps if p == 0 or not math.isfinite(p)]
    if bad:
        raise BadR(f"Lie-Trotter exponents must be finite and nonzero, got {bad}")
    w = _spec_weights(spec)
    stack = _as_stack(As)
    mean_val, harm, arith = (eval_mean_stack(m, stack, certify=False).values
                             for m in (spec, MultiMeanSpec.harmonic(w), MultiMeanSpec.arithmetic(w)))
    mean_norm = op_norm(mean_val)
    lo, hi = order_margin(harm, mean_val, hi_norm=mean_norm), order_margin(mean_val, arith, mean_norm)
    if min(lo, hi) < -CHECK_TOL:
        raise SandwichFails(f"mean escapes the harmonic-arithmetic sandwich (margins {lo:.3e}, {hi:.3e})")
    target = spd_exp(_weighted_sum(w.asarray(), spd_log(stack)))
    gaps = []
    for p in ps:
        val = eval_mean_stack(spec, spd_power(stack, p), certify=False).values
        gaps.append(float(thompson(spd_power(val, 1.0 / p), target)))
    return gaps


# --------------------------------------------------------------------------
# optimality scans
# --------------------------------------------------------------------------


_SCAN_SHIFT = 1e-9  # the rank-one family's step into the open cone
_SCAN_TOL = 1e-7  # a scan candidate violates when its margin is below -_SCAN_TOL


def optimality_scan(tau: RepFnSpec, r: float, mode: str) -> Optional[Counterexample]:
    """Search the explicit 2x2 families for a violation outside the valid r-range.

    ``prop_6_1`` scans the diagonal family (identity against diag(1, x) for
    189 x geometrically spaced in [1e-3, 1]) for a violation of the
    complement bracket, which exists exactly when r > 1.  ``prop_6_2`` scans
    the rank-one family (diagonal inverse scales against a rotated rank-one
    projector, shifted by 1e-9 into the positive cone) for a failure of
    power-escalation after tight rescaling, which exists exactly when r < 1:
    a 21 x 21 grid of scales in [0.05, 20] times 9 angles in [0.1, 0.9], then
    the near-identity scales ``1 +- eps``, eps in (0.05, 0.02, 0.01), at the
    angles ``(1 + k eps) / 2`` in (0, 1) for 41 k in [-30, 30].  The grids
    are fixed and each is one batched evaluation; the first candidate in
    grid order with a margin below -1e-7 is returned, or None.
    """
    if not 0 < r < math.inf:
        raise BadR(f"optimality scans need a finite r > 0, got {r}")
    if mode == "prop_6_1":
        violated_id, (params, a, b, margins) = "6.1", _scan_bracket_complement(tau, r)
    elif mode == "prop_6_2":
        if tau.is_left_trivial or tau.acts_right_trivial:
            raise BadMode("prop_6_2 needs a mean distinct from both trivial means")
        violated_id, (params, a, b, margins) = "6.3", _scan_escalation(tau, r)
    else:
        raise BadMode(f"unknown scan mode {mode!r}")
    hits = np.flatnonzero(margins < -_SCAN_TOL)
    if not hits.size:
        return None
    k = hits[0]
    return Counterexample(
        family_params=tuple(None if p is None else float(p[k]) for p in params),
        matrices=(SpdMatrix(2, a[k]), SpdMatrix(2, b[k])),
        r=r,
        violated_id=violated_id,
        violation_margin=float(margins[k]),
        epsilon_shift=_SCAN_SHIFT if violated_id == "6.3" else None,
    )


def _complement_margin(tau, r, a, b):
    """Margins of the complement bracket ``||tau_r||^{r-1} tau_r(A, B) <= A^r tau B^r`` (6.1), batched."""
    base = Spectral(a)
    lhs = _frame_mean(partial(rep_eval, rep_transform(tau, "power_inner_outer", r)), pair_frame(base, b))
    rhs = _frame_mean(partial(rep_eval, tau), pair_frame(base.raised(r), spd_power(b, r)))
    return _bracket_margins(rhs, lhs, r, "complement", side="lower")[0]


def _clamped(spec):
    # the rank-one family sits on the boundary of the cone; eigenvalues of
    # order shift**r drown in eigensolver noise, so evaluation clamps to 0+
    return lambda u: rep_eval(spec, np.maximum(u, 1e-30))


def _escalation_margin(tau, r, a, b):
    """Margins of ``A^r tau_{1/r} B^r <= I`` (6.3), the power bracket of tau, batched.

    ``a`` is the stack of ``A`` or its :class:`Spectral`, from which ``A^r``
    is raised.
    """
    base = a if isinstance(a, Spectral) else Spectral(a)
    fn = _clamped(rep_transform(tau, "power_inner_outer", 1.0 / r))
    out = _frame_mean(fn, pair_frame(base.raised(r), spd_power(b, r)))
    return order_margin(out, np.eye(b.shape[-1]), hi_norm=1.0)


def _scan_bracket_complement(tau, r):
    """The 6.1 grid: its parameters, pairs and margins."""
    x = np.geomspace(1e-3, 1.0, 189)
    b = np.zeros((len(x), 2, 2))
    b[:, 0, 0], b[:, 1, 1] = 1.0, x
    a = np.broadcast_to(np.eye(2), b.shape)
    return (x, None, None), a, b, _complement_margin(tau, r, a, b)


def _rank_one_family(x, y, t):
    """The pairs ``diag(1/x, 1/y)`` and the rank-one projector at angle t plus
    ``_SCAN_SHIFT I``, stacked over the candidate arrays."""
    a = np.zeros((len(t), 2, 2))
    a[:, 0, 0], a[:, 1, 1] = 1.0 / x, 1.0 / y
    s, c = np.sqrt(t), np.sqrt(1.0 - t)
    b = np.stack([np.stack([t, s * c], -1), np.stack([s * c, 1.0 - t], -1)], -2)
    return a, b + _SCAN_SHIFT * np.eye(2)


def _scan_escalation(tau, r):
    """The 6.3 grid: its parameters, pairs rescaled to ``||A tau B|| = 1`` and margins."""
    ratios = np.geomspace(0.05, 20.0, 21)
    grid = np.meshgrid(ratios, ratios, np.linspace(0.1, 0.9, 9), indexing="ij")
    eps = np.repeat([0.05, 0.02, 0.01], 41)
    near_t = (1.0 + np.tile(np.linspace(-30.0, 30.0, 41), 3) * eps) / 2.0
    inside = (0.0 < near_t) & (near_t < 1.0)
    x, y, t = (np.concatenate([g.ravel(), near[inside]]) for g, near in zip(grid, (1.0 + eps, 1.0 - eps, near_t)))
    a, b = _rank_one_family(x, y, t)
    base = Spectral(a)
    beta = op_norm(_frame_mean(_clamped(tau), pair_frame(base, b)))
    # A / beta keeps A's eigenvectors, so its powers are raised from A's decomposition
    scaled = base.scaled(beta)
    b = b / beta[:, None, None]
    return (x, y, t), scaled.a, b, _escalation_margin(tau, r, scaled, b)


def verify_counterexample(cx: Counterexample, tau: RepFnSpec) -> bool:
    """Re-run the violated check on the stored matrices; True if it still fails."""
    a, b = (m.a[None] for m in cx.matrices)
    if cx.violated_id == "6.1":
        return bool(_complement_margin(tau, cx.r, a, b)[0] < -_SCAN_TOL)
    if cx.violated_id == "6.3":
        if float(op_norm(_two_var_arrays(_clamped(tau), a, b))[0]) > 1.0 + 1e-9:
            return False
        return bool(_escalation_margin(tau, cx.r, a, b)[0] < -_SCAN_TOL)
    raise BadMode(f"unknown counterexample id {cx.violated_id!r}")


def find_reverse_improvement():
    """Seeded search for an instance where the Kantorovich bound beats the norm bound.

    Tries seeds 0-199 in order, each an ensemble of three 3x3 matrices with
    spectra in ``[1, kappa0]``, ``kappa0 = 2``, and returns the data of the
    first whose multivariate geometric mean X is spread enough that
    ``K(kappa0 kappa(X), 2) lambda_min(X) < ||X||``, or None.  The prefilter
    ``kappa(X) > 1 / (sqrt(kappa0) (2 - sqrt(kappa0)))`` is derived for
    r = 2 and needs ``1 < kappa0 < 4``.
    """
    kappa0 = 2.0
    threshold = 1.0 / (np.sqrt(kappa0) * (2.0 - np.sqrt(kappa0)))
    uni = Weights.uniform(3)
    for seed in range(200):
        mats = [random_spd(3, (1.0, kappa0), 7_000 + 31 * seed + j) for j in range(3)]
        x = eval_mean_stack(MultiMeanSpec.karcher(uni), _as_stack(mats), certify=False).values
        kx = float(op_norm(x) / lambda_min(x))
        if kx <= threshold:
            continue
        k = kantorovich(kappa0 * kx, 2.0)
        if k * float(lambda_min(x)) < float(op_norm(x)):
            return {
                "seed": seed,
                "kappa0": kappa0,
                "kappa_x": kx,
                "threshold": threshold,
                "K": float(k),
                "matrices": mats,
            }
    return None


# --------------------------------------------------------------------------
# batched campaign cells
# --------------------------------------------------------------------------

_N = 3  # matrices per trial ensemble in the stack layout


def _once(cache, key, make):
    """``make()`` on the first call with ``key``, ``cache[key]`` after: the one
    memo of what a (family, dim, alpha) group reuses over its r grid."""
    if key not in cache:
        cache[key] = make()
    return cache[key]


def _trials(data, cache):
    """The :class:`Spectral` of the trial stack: the group's one decomposition
    of its trial matrices, from which every power of them is taken."""
    return _once(cache, "stack", lambda: Spectral(data.stack))


def _solve(spec, r, data, cache):
    """``spec`` on the trials' matrices raised to ``r``, solved once per group
    under the key ``(spec, r)``: ``A^1`` is ``A`` itself, so the r = 1 cell
    finds the means every other cell solves on the trials' own matrices.
    The solve takes ``A^r`` as raised from the group's decomposition, so it
    reads its rounding floor and, for an inverted mean, ``A^{-r}`` from it."""
    return _once(cache, (spec, r), lambda: eval_mean_stack(
        spec, _trials(data, cache).raised(r), data.weights, certify=False).values)


# Margin functions of the families: ``(data, r, alpha, cache)`` to the
# per-trial margins and a constants dict.  ``data.mean`` is the family's mean
# and ``alpha`` the exponent it takes.  The trial weights override any a
# mean's nodes carry.  ``cache`` is the group's memo (see :func:`_once`),
# which the shared-ensemble seed scheme makes reusable across the r grid.


def _transformed(spec, s):
    """``spec`` with its parameter transformed by ``s``: P_alpha becomes
    P_{alpha s} and a mean deformed by sigma one deformed by sigma_s (sigma
    itself at ``s = 1``); a Karcher mean has none."""
    if spec.kind == "power":
        return MultiMeanSpec.power(spec.weights, spec.alpha * s)
    if spec.kind == "deformed":
        return MultiMeanSpec.deformed(spec.base, rep_transform(spec.sigma, "power_inner", s))
    return spec


def _bracket(data, r, alpha, cache, mean=None, side=None):
    """The power bracket of a family of means: modified (3.13/3.14, 4.4-4.9),
    in its Kantorovich reverse (5.8-5.10, whose inputs are bounded), or one
    ``side`` of it, "lower" or "upper" (3.9-3.12, 5.4/5.5).

    ``mean(s, q)``, by default :func:`_transformed` of the cell's mean, is the
    family's mean with its parameter transformed by ``s`` (at ``s = 1``, the
    identity) on the inputs raised to ``q``.  For r >= 1 ``mean(1/r, r)`` is
    bracketed by the group's base ``mean(1, 1)`` with the direct prefactors,
    or the complement ones widened by K1 for the reverse forms; for r < 1
    ``mean(1, r)`` by ``mean(r, 1)`` with the complement ones.  At r = 1 the
    two forms agree to the bit: every prefactor is ``end^0 = 1`` and every
    mean ``mean(1, 1)``.  A side bounds ``mean(1, r)`` by the base with the
    prefactor of its form, widened for the reverse forms by ``K1 K2``
    (alpha > 0) or ``K2 / K1`` (alpha < 0), ``K2 = K((kappa0
    kappa_x)^|alpha|, r)^{1/alpha}``.
    """
    if mean is None:
        def mean(s, q):
            return _solve(_transformed(data.mean, s), q, data, cache)
    if r < 1 and not side:
        return _bracket_margins(mean(1.0, r), mean(r, 1.0), r, "complement")
    x = mean(1.0, 1.0)
    lam, nrm = ends = _once(cache, "base ends", lambda: spectral_ends(x))
    consts, k, reverse = {}, 1.0, data.bounds[0] is not None
    if reverse:
        kappa0, kx = data.bounds[1] / data.bounds[0], nrm / lam
        k = kantorovich(kappa0 * kx, r)
        consts = {"kappa0": kappa0, "kappa_x": kx, "K1": k}
        if side:
            k2 = consts["K2_pow"] = kantorovich((kappa0 * kx) ** abs(alpha), r) ** (1.0 / alpha)
            k = k * k2 if alpha > 0 else k2 / k
    style = "complement" if reverse or r < 1 else "direct"
    margin, sides = _bracket_margins(mean(1.0, r) if side else mean(1.0 / r, r), x, r, style, k, ends, side)
    return margin, {} if side and not reverse else {**consts, **sides}


def _pair_cell(by_sigma, data, r, alpha, cache):
    """4.6-4.9: the modified bracket of the two-variable mean tau, deformed
    by sigma (4.6/4.7) or power-bracketed alone (4.8/4.9).  Each mean is
    solved once per group, keyed like :func:`_solve` on the transformed
    function and the power ``q`` of the inputs, and the means at one ``q``
    share its :func:`~opmeans.psd_core.pair_frame`, whose base ``A^q`` is
    raised from the group's decomposition of the trials, not decomposed."""
    fn, op = (data.sigma, "power_inner") if by_sigma else (data.tau, "power_inner_outer")

    def frame(q):
        trials = _trials(data, cache)
        return pair_frame(trials[:, 0].raised(q), trials[:, 1].power(q))

    def mean(s, q):
        f = rep_transform(fn, op, s)

        def solve():
            rep = partial(deformed_rep, data.tau, f) if by_sigma else partial(rep_eval, f)
            return _frame_mean(rep, _once(cache, ("frame", q), partial(frame, q)))

        return _once(cache, (f, q), solve)

    margin, sides = _bracket(data, r, alpha, cache, mean)
    sigma_json = None if data.sigma is None else repfn_to_json(data.sigma)
    return margin, {"tau_json": repfn_to_json(data.tau), "sigma_json": sigma_json, **sides}


def _arith_reverse_cell(data, r, alpha, cache):
    """5.3: ``sum w_j A_j^r <= K(M/m, r) (sum w_j A_j)^r``."""
    m, M = data.bounds
    k = kantorovich(M / m, r)
    lhs = _weighted_sum(data.weights, _trials(data, cache).power(r))
    mean_r = _once(cache, "mean", lambda: Spectral(_weighted_sum(data.weights, data.stack))).raised(r)
    return order_margin(lhs, k * mean_r.a, hi_norm=k * mean_r.norm), {"K": k}


def _compression_cell(data, r, alpha, cache):
    """L5.1: ``C A^r C <= K(M/(m mu), r) (C A C)^r`` for each trial ``[A, C]``."""
    m, M = data.bounds
    a, c = data.stack[:, 0], data.stack[:, 1]
    h1 = M / (m * data.mu)
    k = kantorovich(h1, r)
    lhs = sym(c @ _once(cache, "A", lambda: Spectral(a)).power(r) @ c)
    cac_r = _once(cache, "CAC", lambda: Spectral(sym(c @ a @ c))).raised(r)
    return order_margin(lhs, k * cac_r.a, hi_norm=k * cac_r.norm), {"mu": data.mu, "h1": h1, "K": k}


def _logmaj_cell(data, r, alpha, cache):
    """logmaj: see :func:`check_log_majorization`; the full products must
    agree to 1e-8 in log terms."""
    g1, gr = (_solve(data.mean, q, data, cache) for q in (1.0, r))
    lam1 = np.sort(np.linalg.eigvalsh(g1), axis=-1)[..., ::-1]  # decreasing
    lamr = np.sort(np.linalg.eigvalsh(gr), axis=-1)[..., ::-1]
    lhs_log = np.cumsum(np.log(lamr), axis=-1)
    rhs_log = np.cumsum((r - 1.0) * np.log(lam1[..., ::-1]) + np.log(lam1), axis=-1)
    gap = rhs_log - lhs_log
    eq_err = np.abs(gap[..., -1])
    worst_partial = gap[..., :-1].min(axis=-1) if gap.shape[-1] > 1 else np.zeros(gap.shape[:-1])
    margin = np.minimum(worst_partial, 1e-8 - eq_err)
    return margin, {"equality_error": eq_err, "worst_partial": worst_partial}


# Mean rules: the exponent a family's mean takes to that mean.  Their specs
# carry no weights, so every node takes the trial weights.
_power = partial(MultiMeanSpec.power, None)


def _adjoint_power(alpha):
    """P_alpha for alpha < 0 as the adjoint of P_{-alpha}, the spec "3.2"/"3.4"
    solve when handed P_{-alpha}."""
    return MultiMeanSpec.adjoint(MultiMeanSpec.power(None, -alpha))


def _harmonic_deformed(alpha):
    """5.8: the arithmetic mean deformed by harmonic(|alpha|), adjointed for alpha < 0."""
    sigma = harmonic(alpha) if alpha > 0 else rep_transform(harmonic(-alpha), "adjoint")
    return MultiMeanSpec.deformed(MultiMeanSpec.arithmetic(None), sigma)


def _karcher(alpha):
    return MultiMeanSpec.karcher(None)


# an admissible alpha_used, as a test and as text
_POSITIVE = (lambda a: 0 < a <= 1, "(0, 1]")
_NEGATIVE = (lambda a: -1 <= a < 0, "[-1, 0)")
_NONZERO = (lambda a: a != 0 and -1 <= a <= 1, "[-1,1] minus 0")


def _family(r_range, margins, mean=None, needs_alpha=True, layout="stack", spread=None, domain=None, used=None):
    """One campaign family.

    ``used`` maps a cell's alpha to the exponent the family's ``mean`` rule
    takes, reported as ``alpha_used`` (None: the alpha itself, unreported),
    and ``domain`` is that exponent's admissible set.  ``layout`` holds a
    trial as ``"stack"`` (``_N`` matrices and weights), ``"pair"`` (A, B and
    the representing functions tau, sigma) or ``"compress"`` (A and a
    compression C), in witness order.  ``spread`` pins a bounded family's
    inputs to [m, M], m ~ U(0.5, 1) per cell and M/m fixed or drawn from a
    (lo, hi) range; the others use [0.5, 2.2].  Narrow pinned spectra can
    genuinely violate the stated reverse bounds (aligned commuting inputs
    do), so each spread is one where the family's Kantorovich constant
    suffices against the aligned worst case.
    """
    return {"r_range": r_range, "needs_alpha": needs_alpha, "layout": layout, "spread": spread,
            "margins": margins, "mean": mean, "alpha_domain": domain, "alpha_used": used}


FAMILIES = {
    "3.9": _family("ge1", partial(_bracket, side="lower"), _power, used=operator.pos),
    "3.10": _family("ge1", partial(_bracket, side="upper"), _adjoint_power, used=operator.neg),
    "3.11": _family("le1", partial(_bracket, side="upper"), _power, used=operator.pos),
    "3.12": _family("le1", partial(_bracket, side="lower"), _adjoint_power, used=operator.neg),
    "3.13": _family("ge1", _bracket, _karcher, needs_alpha=False),
    "3.14": _family("le1", _bracket, _karcher, needs_alpha=False),
    "4.4": _family("ge1", _bracket, _power),
    "4.5": _family("le1", _bracket, _power),
    "4.6": _family("ge1", partial(_pair_cell, True), layout="pair"),
    "4.7": _family("le1", partial(_pair_cell, True), layout="pair"),
    "4.8": _family("ge1", partial(_pair_cell, False), layout="pair"),
    "4.9": _family("le1", partial(_pair_cell, False), layout="pair"),
    "5.3": _family("ge1", _arith_reverse_cell, needs_alpha=False, spread=(1.6, 3.4)),
    "L5.1": _family("ge1", _compression_cell, needs_alpha=False, layout="compress", spread=10.0),
    "5.4": _family("ge1", partial(_bracket, side="upper"), _power, used=operator.pos, spread=8.0,
                   domain=_POSITIVE),
    "5.5": _family("ge1", partial(_bracket, side="lower"), _adjoint_power, used=operator.neg,
                   spread=8.0, domain=_NEGATIVE),
    "5.8": _family("ge1", _bracket, _harmonic_deformed, used=operator.pos, spread=8.0, domain=_NONZERO),
    "5.9": _family("ge1", _bracket, _power, used=operator.pos, spread=8.0, domain=_NONZERO),
    "5.10": _family("ge1", _bracket, _karcher, used=operator.pos, needs_alpha=False, spread=8.0),
    "logmaj": _family("le1", _logmaj_cell, _karcher, needs_alpha=False),
}


def _derive_seed(*parts) -> int:
    return _derive_seeds(parts[:-1], parts[-1:])[0]


def _derive_seeds(prefix, suffixes) -> list:
    """``_derive_seed(*prefix, x)`` for each ``x`` of ``suffixes``: the
    blake2s of the shared prefix is taken once and copied for each."""
    head = hashlib.blake2s("".join(f"{p}|" for p in prefix).encode(), digest_size=8)
    out = []
    for x in suffixes:
        h = head.copy()
        h.update(str(x).encode())
        out.append(int.from_bytes(h.digest(), "big") % (2**63))
    return out


@dataclass
class _CellData:
    seeds: list
    stack: np.ndarray  # (trials, matrices, dim, dim)
    weights: Optional[np.ndarray] = None
    bounds: tuple = (None, None)
    mu: float = 0.4  # the compress layout draws C with mu I <= C^2 <= I
    tau: Optional[RepFnSpec] = None
    sigma: Optional[RepFnSpec] = None
    mean: Optional[MultiMeanSpec] = None  # the family's mean, from its rule or a typed check

    @property
    def dim(self) -> int:
        return int(self.stack.shape[-1])


def _gen_cell_data(family, dim, alpha, trials, master_seed) -> _CellData:
    """Deterministic trial data for one campaign cell.

    The seed scheme deliberately excludes r, so every r-value of a family
    reuses the same ensembles; that is what lets structural cross-checks
    (and solver caches) line up across r.  Every draw of the group comes
    from one :func:`~opmeans.psd_core._generators` call, in the order the
    seeds are listed: the cell's constants, the trials' matrices, then the
    compressions, the weights or the pair's means.
    """
    info = FAMILIES[family]
    layout, spread = info["layout"], info["spread"]
    cell = (master_seed, family, dim, alpha)
    seeds = _derive_seeds(cell, range(trials))
    # a pair trial is the two matrices A, B, a compress trial A then C; a
    # stack trial is an ensemble of _N and its weights
    keys = {"stack": [*range(_N), "w"], "pair": ["a", "b"], "compress": [0, "c"]}[layout]
    per_trial = [_derive_seeds((s,), keys) for s in seeds]
    n = 2 if layout == "pair" else len(keys) - 1  # matrices a trial draws from the cell's spectrum
    head = [] if spread is None else [_derive_seed(*cell, "cell")]
    tail = [_derive_seed(*cell, "fn")] if layout == "pair" else [row[-1] for row in per_trial]
    rngs = _generators(head + [x for row in per_trial for x in row[:n]] + tail)
    spectrum, bounds = (0.5, 2.2), (None, None)
    if head:
        cell_rng = next(rngs)
        m = round(float(cell_rng.uniform(0.5, 1.0)), 6)
        ratio = cell_rng.uniform(*spread) if isinstance(spread, tuple) else spread
        spectrum = bounds = (m, round(float(m * ratio), 6))
    draws = _spd_draws(dim, spectrum, rngs, trials * n)
    data = _CellData(seeds, draws.reshape(trials, n, dim, dim), bounds=bounds)
    if layout == "compress":
        c = _spd_draws(dim, (np.sqrt(data.mu), 0.999999), rngs, trials)
        data.stack = np.concatenate([data.stack, c[:, None]], axis=1)
    elif layout == "pair":
        kind_rng = next(rngs)
        w_tau = round(float(kind_rng.uniform(0.25, 0.75)), 6)
        data.tau = (arithmetic, harmonic, geometric)[int(kind_rng.integers(3))](w_tau)
        data.sigma = geometric(alpha) if kind_rng.integers(2) == 0 else harmonic(alpha)
    else:
        raw = np.stack([rng.uniform(0.2, 1.0, _N) for rng in rngs])
        data.weights = raw / raw.sum(axis=1, keepdims=True)
    return data


def _witness_cell(family, mats, weights=None, bounds=None, mu=None, tau=None, sigma=None, mean=None,
                  seed=-1) -> _CellData:
    """A one-trial cell of ``family`` from typed inputs or a report's witness.

    ``mats``, the trial's matrices in witness order, must be a trial that a
    campaign could have drawn: a matrix count that fits the layout (two for
    a pair or a compression), one dimension, one weight per ensemble matrix
    (uniform when ``weights`` is None; only an ensemble takes weights), and
    ``mu I <= C^2 <= I`` for the compression.  A bounded family needs
    ``bounds = (m, M)``, two finite numbers with ``0 < m < M`` and
    ``m I <= A_j <= M I``; any other takes none (BoundsViolated).  ``seed``
    is the trial's seed as reported, -1 for a typed check.
    """
    info = FAMILIES[family]
    layout = info["layout"]
    arrays = _as_stack(mats)
    if layout != "stack" and len(arrays) != 2:
        raise ArityMismatch(f"{len(arrays)} matrices do not fit the {layout} layout")
    if layout != "stack" and weights is not None:
        raise ArityMismatch(f"the {layout} layout takes no weights")
    data = _CellData([seed], arrays[None], mean=mean)
    if layout == "pair":
        data.tau, data.sigma = tau, sigma
        return data
    if layout == "stack":
        w = Weights.uniform(len(arrays)) if weights is None else weights
        if len(w.values) != len(arrays):
            raise ArityMismatch(f"{len(w.values)} weights for {len(arrays)} matrices")
        data.weights = w.asarray()[None]
    if info["spread"] is not None:
        data.bounds = _pinned_bounds(bounds)
        _check_bounds(arrays[:1] if layout == "compress" else arrays, *data.bounds)
    elif bounds is not None:
        raise BoundsViolated(f"family {family} takes no bounds, got {bounds!r}")
    if layout == "compress":
        c = arrays[1:]
        data.mu = data.mu if mu is None else mu
        if not 0 < data.mu <= 1:
            raise BoundsViolated(f"mu must lie in (0, 1], got {data.mu}")
        _check_bounds(c @ c, data.mu, 1.0)
    return data


def _pinned_bounds(bounds) -> tuple:
    """``bounds`` as ``(m, M)``; BoundsViolated unless two finite numbers with ``0 < m < M``."""
    try:
        m, M = bounds
        if 0 < m < M < math.inf:
            return m, M
    except (TypeError, ValueError):
        pass
    raise BoundsViolated(f"bounds need two finite numbers 0 < m < M, got {bounds!r}")


def _cell_info(family, r, alpha, label=None) -> tuple:
    """The family's entry and the exponent its mean takes, after checking r
    and that exponent against the entry: a cell's ``alpha`` as the family
    uses it, or what the typed check ``label`` hands in."""
    if family not in FAMILIES:
        raise UnknownKind(f"unknown family {family!r}")
    info = FAMILIES[family]
    if label is None:
        if info["needs_alpha"] and alpha is None:
            raise BadR(f"family {family} needs an alpha value")
        # the exponent a cell's mean takes; a family that takes no alpha gets none
        alpha = (info["alpha_used"] or operator.pos)(alpha) if info["needs_alpha"] else None
    _require_r(r, info["r_range"], label or f"family {family}")
    if info["alpha_domain"] is not None:
        admits, domain = info["alpha_domain"]
        if alpha is None or not admits(alpha):
            raise BadR(f"{family} needs alpha in {domain}, got {alpha}")
    return info, alpha


def _cell_id(family, dim, r, alpha) -> str:
    return f"{family}[dim={dim},r={r}" + (f",alpha={alpha}]" if FAMILIES[family]["needs_alpha"] else "]")


def _at(value, idx):
    """A constant as reported: a per-trial array is read at trial ``idx``."""
    return float(value[idx]) if isinstance(value, np.ndarray) else value


def _verdict(ident, data, margins, consts, r, alpha) -> CheckReport:
    """The report of a cell: its worst trial decides ``holds`` and gives every
    per-trial constant; a failing report embeds that trial's seed, matrices
    and weights so it can be re-checked in isolation."""
    margins = np.atleast_1d(np.asarray(margins, dtype=float))
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    constants = {
        "r": r, "alpha": alpha, "dim": data.dim, "trials": len(data.seeds),
        "worst_trial": worst, **{k: _at(v, worst) for k, v in consts.items()},
    }
    if data.bounds[0] is not None:
        constants["m"], constants["M"] = data.bounds
    holds = margin >= -CHECK_TOL
    matrices = None
    if not holds:
        matrices = [matrix_to_json(m) for m in data.stack[worst]]  # in the order recheck reads them
        if data.weights is not None:
            constants["weights"] = [float(x) for x in data.weights[worst]]
    return CheckReport(
        inequality_id=ident,
        holds=holds,
        margin=margin,
        constants=constants,
        witness_seed=int(data.seeds[worst]),
        matrices=matrices,
    )


def run_cell(
    family: str,
    dim: int,
    r: float,
    alpha: Optional[float],
    trials: int,
    master_seed: int,
    *,
    data: Optional[_CellData] = None,
    cache: Optional[dict] = None,
) -> CheckReport:
    """Evaluate one (family, dim, r, alpha) campaign cell over seeded trials.

    The worst trial decides ``holds``, and a failing report embeds its seed
    and matrices for :func:`recheck`.  ``data`` and ``cache`` let the cells of
    one (family, dim, alpha) group share their trial data and r-independent
    solves; the report is the same with or without them.
    """
    info, used = _cell_info(family, r, alpha)
    data = _gen_cell_data(family, dim, alpha, trials, master_seed) if data is None else data
    data = replace(data, mean=info["mean"] and info["mean"](used))  # the family's rule, for cells and recheck
    margins, consts = info["margins"](data, r, used, {} if cache is None else cache)
    if info["alpha_used"] is not None:
        consts = {"alpha_used": used, **consts}
    return _verdict(_cell_id(family, dim, r, alpha), data, margins, consts, r, alpha)


def _finite(value, what) -> float:
    """``value`` as a float; ConfigError unless it is a finite int or float
    (a boolean or a string is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{what} must be finite, got {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return out


def _integer(value, what) -> int:
    """``value`` as an int; ConfigError unless it is a number with no
    fractional part (a boolean or a string is not)."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _list(value, what) -> list:
    """``value`` itself; ConfigError unless it is a list (a string is not)."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def recheck(report_json: dict) -> CheckReport:
    """Re-run a single failed campaign report from its embedded witness.

    The witness, with the report's weights, bounds, ``mu`` and representing
    functions, becomes a one-trial cell of the family, validated like a typed
    check's inputs (a report that does not fit the family's layout, or a
    witness outside its bounds, is a typed error), which :func:`run_cell`
    evaluates as the campaign did.
    """
    if not isinstance(report_json, dict) or not isinstance(report_json.get("inequality_id"), str):
        raise ConfigError("a report must be a JSON object with a string 'inequality_id'")
    ident = report_json["inequality_id"]
    family = ident.split("[", 1)[0]
    if family not in FAMILIES:
        raise UnknownKind(f"cannot recheck inequality id {ident!r}")
    consts = report_json.get("constants")
    if not isinstance(consts, dict) or "r" not in consts:
        raise ConfigError("report constants must be an object carrying 'r'")
    seed = report_json.get("witness_seed", -1)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"witness_seed must be an integer, got {seed!r}")
    r = _finite(consts["r"], "r")
    alpha = None if consts.get("alpha") is None else _finite(consts["alpha"], "alpha")
    info, _ = _cell_info(family, r, alpha)
    mats = report_json.get("matrices")
    if not mats or not isinstance(mats, list):
        raise UnknownKind("report carries no embedded witness matrices")
    inputs = {}
    if info["spread"] is not None:
        inputs["bounds"] = (_finite(consts.get("m"), "m"), _finite(consts.get("M"), "M"))
    if "mu" in consts:
        inputs["mu"] = _finite(consts["mu"], "mu")
    if "weights" in consts:
        inputs["weights"] = Weights(consts["weights"])
    if info["layout"] == "pair":
        if "tau_json" not in consts or "sigma_json" not in consts:
            raise ConfigError(f"{family} reports must carry tau_json and sigma_json")
        inputs["tau"], inputs["sigma"] = (repfn_from_json(consts[k]) for k in ("tau_json", "sigma_json"))
    data = _witness_cell(family, [matrix_from_json(m) for m in mats], seed=seed, **inputs)
    rep = run_cell(family, data.dim, r, alpha, 1, seed, data=data)
    return replace(rep, inequality_id=ident)


# --------------------------------------------------------------------------
# typed checks
# --------------------------------------------------------------------------

_LABELS = {"3.1": "3.9", "3.2": "3.10", "3.3": "3.11", "3.4": "3.12", "4.1": "4.4", "4.2": "4.5"}


def _labelled(label, labels, what) -> str:
    """The family that ``label``, one of the check's ``labels``, checks: by
    :data:`_LABELS` if it is not a family id itself."""
    if label not in labels:
        raise UnknownKind(f"unknown {what} {label!r}")
    return _LABELS.get(label, label)


def check_ah_family(
    spec: MultiMeanSpec,
    As: Sequence[SpdMatrix],
    r: float,
    variant: str,
) -> CheckReport:
    """Power-escalation check of a mean against its scalar prefactor.

    Variants: "3.1" ``M(A^r) >= lambda_min^{r-1}(M(A)) M(A)`` for r >= 1 and
    "3.3" its complement for r <= 1; "3.2"/"3.4" the same pair for the
    adjoint mean with the norm prefactor and reversed order.
    """
    family = _labelled(variant, ("3.1", "3.2", "3.3", "3.4"), "variant")
    mean = MultiMeanSpec.adjoint(spec) if variant in ("3.2", "3.4") else spec
    return _family_check(family, r, As, spec.alpha, variant, f"{variant}:{spec.kind}",
                         weights=_spec_weights(spec), mean=mean)


def check_modified(
    base: MultiMeanSpec,
    sigma: RepFnSpec,
    As: Sequence[SpdMatrix],
    r: float,
    which: str,
) -> CheckReport:
    """Two-sided check of the deformed mean against its power-adjusted twin.

    "4.1" (r >= 1) brackets ``M_{sigma_{1/r}}(A^r)`` by ``M_sigma(A)`` with
    the lambda_min / norm prefactors; "4.2" (0 < r <= 1) brackets
    ``M_sigma(A^r)`` by ``M_{sigma_r}(A)`` with the prefactors swapped.
    """
    return _family_check(_labelled(which, ("4.1", "4.2"), "modified check"), r, As, label=which,
                         weights=_spec_weights(base), mean=MultiMeanSpec.deformed(base, sigma))


def check_two_var(
    tau: RepFnSpec,
    sigma: Optional[RepFnSpec],
    A: SpdMatrix,
    B: SpdMatrix,
    r: float,
    which: str,
) -> CheckReport:
    """Two-variable specializations of the modified checks.

    "4.6"/"4.7" use the deformation of ``tau`` by ``sigma``; "4.8"/"4.9"
    use the power-bracket transform of ``tau`` alone (``sigma`` ignored).
    """
    return _family_check(_labelled(which, ("4.6", "4.7", "4.8", "4.9"), "two-variable check"), r, [A, B],
                         tau=tau, sigma=sigma)


def check_reverse(
    w: Weights,
    alpha: Optional[float],
    As: Sequence[SpdMatrix],
    r: float,
    which: str,
    bounds,
) -> CheckReport:
    """Reverse power-escalation bounds with Kantorovich prefactors.

    Inputs must satisfy ``m I <= A_j <= M I`` for the supplied bounds; the
    condition number of the relevant mean feeds the constant.  "5.4"/"5.5"
    are the one-sided power-mean forms (alpha > 0 / alpha < 0), "5.9" the
    two-sided power-mean form, "5.8" the general deformed-mean form (here
    with a harmonic deformation of the arithmetic mean), "5.10" the
    two-sided multivariate geometric form (alpha ignored).
    """
    return _family_check(_labelled(which, ("5.4", "5.5", "5.8", "5.9", "5.10"), "reverse check"), r, As, alpha,
                         weights=w, bounds=bounds)


def check_compression_reverse(
    A: SpdMatrix,
    C: SpdMatrix,
    r: float,
    m: float,
    M: float,
    mu: float,
) -> CheckReport:
    """``C A^r C <= K(M/(m mu), r) (C A C)^r`` for a contraction-like ``C``.

    Requires ``m I <= A <= M I`` and ``mu I <= C^2 <= I``.
    """
    return _family_check("L5.1", r, [A, C], bounds=(m, M), mu=mu)


def check_arithmetic_power_reverse(
    w: Weights,
    As: Sequence[SpdMatrix],
    r: float,
    bounds,
) -> CheckReport:
    """``sum w_j A_j^r <= K(M/m, r) (sum w_j A_j)^r`` under pinned bounds."""
    return _family_check("5.3", r, As, weights=w, bounds=bounds)


def check_log_majorization(
    w: Weights,
    As: Sequence[SpdMatrix],
    r: float,
) -> CheckReport:
    """Partial-product domination between geometric means at powers r and 1.

    For ``0 < r <= 1`` the sorted spectrum of the multivariate geometric
    mean of the ``A_j^r`` is log-majorized by
    ``lambda_{N+1-i}^{r-1} lambda_i`` of the mean of the ``A_j``, with
    equality of the full products.
    """
    return _family_check("logmaj", r, As, weights=w)


def _family_check(family, r, mats, alpha=None, label=None, ident=None, **inputs) -> CheckReport:
    """``family``'s cell on the one trial ``mats`` as the typed check ``label``,
    with the validation, margin function and report of :func:`run_cell`.
    ``alpha``, the one reported, is the exponent the family's mean takes,
    unless the check hands in its own ``mean``."""
    label = label or family
    info, _ = _cell_info(family, r, alpha, label)
    if "mean" not in inputs:
        inputs["mean"] = info["mean"] and info["mean"](alpha)
    data = _witness_cell(family, mats, **inputs)
    margins, consts = info["margins"](data, r, alpha, {})
    return _verdict(ident or label, data, margins, consts, r, alpha)


def check_implication_equivalence(
    sigma: RepFnSpec,
    tau: RepFnSpec,
    r: float,
) -> CheckReport:
    """Agreement test between a scalar power condition and its matrix form.

    The scalar condition is ``f_sigma(t^r) >= f_tau(t)^r`` on 400 points t
    geometrically spaced in [1e-3, 1e3]; the matrix condition is
    ``A tau B >= I  =>  A^r sigma B^r >= I`` over 40 seeded trials
    (``default_rng(2024)`` draws the seeds of A and B; even trials are 2x2,
    odd ones 3x3, each dimension evaluated as one stack; the hypothesis is
    pinned by rescaling).  The two are equivalent, so the verdicts must
    agree: when the scalar side fails, a concrete matrix violation is
    constructed from the worst grid point and must be confirmed.
    """
    _require_r(r, "ge1", "equivalence test")
    grid = np.geomspace(1e-3, 1e3, 400)
    fs = rep_eval(sigma, grid**r)
    ft = rep_eval(tau, grid) ** r
    scalar_margins = (fs - ft) / (np.abs(fs) + np.abs(ft))
    scalar_margin = float(scalar_margins.min())
    t_worst = float(grid[np.argmin(scalar_margins)])
    scalar_ok = scalar_margin >= -CHECK_TOL

    def excess(base, b, c=1.0):
        """Margin of ``I <= (A/c)^r sigma (B/c)^r``, batched, for ``base =
        Spectral(A)``; sigma is a mean, so that is ``c^-r (A^r sigma B^r)``."""
        out = _frame_mean(partial(rep_eval, sigma), pair_frame(base.raised(r), spd_power(b, r)))
        return order_margin(np.eye(b.shape[-1]), c**-r * out, 1.0)

    seeds = np.random.default_rng(2024).integers(2**32, size=(40, 2))
    worst_matrix = np.inf
    for d, trial_seeds in ((2, seeds[0::2]), (3, seeds[1::2])):
        pairs = random_spd_stack(d, (0.4, 2.5), trial_seeds.ravel().tolist()).reshape(-1, 2, d, d)
        base, b = Spectral(pairs[:, 0]), pairs[:, 1]
        lam = lambda_min(_frame_mean(partial(rep_eval, tau), pair_frame(base, b)))[:, None, None]
        # (A/lam) tau (B/lam) >= I with equality at the bottom
        worst_matrix = min(worst_matrix, float(excess(base, b, lam).min()))
    if not scalar_ok:
        x = rep_eval(tau, t_worst)
        a = np.diag([1.0 / x, 1.0 / x])
        b = np.diag([t_worst / x, t_worst / x])
        worst_matrix = min(worst_matrix, float(excess(Spectral(a), b)))
    matrix_ok = worst_matrix >= -CHECK_TOL
    agree = scalar_ok == matrix_ok
    return CheckReport(
        inequality_id="4.6-equiv",
        holds=agree,
        margin=scalar_margin,
        constants={
            "r": r,
            "scalar_margin": scalar_margin,
            "matrix_margin": float(worst_matrix),
            "worst_t": t_worst,
            "scalar_holds": scalar_ok,
            "matrix_holds": matrix_ok,
        },
        witness_seed=2024,
    )


# --------------------------------------------------------------------------
# campaigns
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    inequality_ids: tuple
    dimensions: tuple
    r_values: tuple
    alpha_values: tuple
    trials: int
    seed: int
    output_path: str

    @classmethod
    def from_json(cls, obj) -> "CampaignConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"a campaign config must be a JSON object, got {type(obj).__name__}")
        extra = sorted(set(obj) - {f.name for f in fields(cls)})
        if extra:
            raise ConfigError(f"unknown campaign config keys: {extra}")
        try:
            ids = tuple(_list(obj["inequality_ids"], "inequality_ids"))
            dims = tuple(_integer(d, "dimension") for d in _list(obj["dimensions"], "dimensions"))
            rs = tuple(_finite(r, "r") for r in _list(obj["r_values"], "r_values"))
            alphas = tuple(_finite(a, "alpha") for a in _list(obj.get("alpha_values", []), "alpha_values"))
            trials = _integer(obj.get("trials", 200), "trials")
            seed = _integer(obj.get("seed", 0), "seed")
            output_path = str(obj.get("output_path", "-"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad campaign config: {exc}") from exc
        if trials < 1:
            raise ConfigError("trials must be >= 1")
        if not ids or not dims or not rs:
            raise ConfigError("inequality_ids, dimensions and r_values must be nonempty")
        if any(d < 1 for d in dims):
            raise ConfigError("dimensions must be positive")
        # a cell holds all its trials in one (trials, _N, dim, dim) array;
        # reserving one up front rejects sizes that cannot run before any work
        try:
            np.empty((trials, _N, max(dims), max(dims)))
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"{trials} trials of dimension {max(dims)} do not fit in memory: {exc}") from exc
        unknown = [i for i in ids if not isinstance(i, str) or i not in FAMILIES]
        if unknown:
            raise ConfigError(f"unknown inequality ids: {unknown}")
        return cls(ids, dims, rs, alphas, trials, seed, output_path)


def run_campaign(config: CampaignConfig, threads: int = 1) -> list:
    """Run every cell of a campaign; one report dict per cell, in cell order.

    Cells run family by family, then by dimension, alpha and r, through
    :func:`run_cell`, so the reports depend on ``config`` alone.  Each
    (family, dim, alpha) group generates its trial data once and shares it,
    with a solve cache, over the r grid.  Groups run on up to ``threads``
    worker processes, never more than there are groups or cores, or in this
    process.  A library error in a cell gives an error line with the cell's
    id; any other exception in a group is raised here.
    """
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    alphas = config.alpha_values or (0.5,)
    groups = [
        (family, dim, alpha)
        for family in config.inequality_ids
        for dim in config.dimensions
        for alpha in (alphas if FAMILIES[family]["needs_alpha"] else (None,))
    ]
    workers = min(threads, len(groups), os.cpu_count() or 1)
    if workers == 1:
        batches = [_run_group(group, config) for group in groups]
    else:
        batches = _run_groups_in_pool(groups, config, workers)
    return [line for batch in batches for line in batch]


def _run_groups_in_pool(groups, config, workers):
    """``_run_group`` over ``groups`` on ``workers`` processes; batches in group order.

    The largest dimensions go first, so the last groups to finish are small
    ones.  Workers are forked where the platform can: they inherit the
    imported library and the warnings filters instead of importing afresh,
    which the library allows because it starts no threads of its own.  The
    pool is imported here, not at module level, because loading it costs
    every ``import opmeans.cli`` about 15 ms.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    order = sorted(range(len(groups)), key=lambda i: -groups[i][1])
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method)) as pool:
        # map re-raises a group's exception here and cancels the groups not started
        batches = dict(zip(order, pool.map(_run_group, [groups[i] for i in order], repeat(config))))
    return [batches[i] for i in range(len(groups))]


def _run_group(group, config):
    """The report lines of one (family, dim, alpha) group over the r grid.

    A library error in a cell gives an error line.  When a solve stops with
    :class:`NoConvergence`, its line names the failing trials by index and
    seed: a campaign solve runs over the group's trials, so a member's index
    is its trial's.
    """
    family, dim, alpha = group
    try:
        data = _gen_cell_data(family, dim, alpha, config.trials, config.seed)
    except OpmeansError:
        data = None  # each cell regenerates the data and reports the error
    cache = {}
    lines = []
    for r in config.r_values:
        try:
            rep = run_cell(family, dim, r, alpha, config.trials, config.seed, data=data, cache=cache)
            lines.append(rep.to_json())
        except OpmeansError as exc:
            line = {
                "inequality_id": _cell_id(family, dim, r, alpha),
                "holds": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }
            if isinstance(exc, NoConvergence) and exc.members:
                line["failing_trials"] = [
                    {"trial": m["member"], "seed": int(data.seeds[m["member"]])} for m in exc.members]
            lines.append(line)
    return lines
