"""Acceptance suite: each test is one release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The randomized campaigns are seeded, so every run checks the
same instances.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
import report_diff

from opmeans.cli import EXIT_OK, EXIT_SEARCH_EXHAUSTED, main as cli_main
from opmeans.inequalities import FAMILIES, CampaignConfig, kantorovich, lie_trotter_gap, run_campaign
from opmeans.meanfns import (
    arithmetic,
    arithmetic_harmonic_mix,
    condition_vi_margin,
    deformed_rep,
    geometric,
    harmonic,
    pmi_margin,
    rep_eval,
    rep_transform,
)
from opmeans.multimeans import (
    DT_TOL,
    MultiMeanSpec,
    Weights,
    adjoint_eval,
    deformed_mean,
    eval_mean,
    eval_mean_stack,
    karcher_mean,
)
from opmeans.psd_core import (
    eigh_apply,
    random_spd,
    spd_sqrt_pair,
    sym,
    thompson,
    validate_spd,
)

R_GE1 = (1.0, 1.5, 2.0, 3.0)
R_LE1 = (0.25, 0.5, 0.75, 1.0)
ALPHAS = (0.25, 0.5, 1.0)
DIMS = (2, 3, 5, 8)
TRIALS = 200
MASTER_SEED = 20260810


def report(n, message):
    print(f"\n[criterion {n}] PASS: {message}")


# --------------------------------------------------------------------------
# 1. exact scalar values of the blend witness
# --------------------------------------------------------------------------


def test_criterion_1_blend_witness_values():
    f = arithmetic_harmonic_mix(0.25)
    assert rep_eval(f, 8.0) == pytest.approx(59.0 / 24.0, rel=1e-12)
    assert rep_eval(f, 2.0) ** 3 == pytest.approx(1331.0 / 512.0, rel=1e-12)
    spot = pmi_margin(f, np.array([2.0]), np.array([3.0]))
    assert spot.worst_margin < 0
    full = condition_vi_margin(f)
    assert full.worst_margin >= -1e-12
    report(1, f"f(8)=59/24, f(2)^3=1331/512, pmi margin {spot.worst_margin:.3e} < 0, "
              f"tangent margin {full.worst_margin:.3e} >= -1e-12")


# --------------------------------------------------------------------------
# 2. generalized Kantorovich constant
# --------------------------------------------------------------------------


def test_criterion_2_kantorovich():
    for h in (1.5, 2.0, 10.0):
        assert kantorovich(h, 1) == pytest.approx(1.0, abs=1e-10)
    assert kantorovich(2.0, 2.0) == pytest.approx(9.0 / 8.0, rel=1e-12)
    ts = np.linspace(0.05, 4.0, 50)
    vals = np.array([kantorovich(3.0**t, 2.0) ** (1 / t) for t in ts])
    assert np.all(np.diff(vals) >= -1e-10)
    limit = kantorovich(3.0**1e-6, 2.0) ** 1e6
    assert limit == pytest.approx(1.0, abs=1e-3)
    report(2, f"K(h,1)=1, K(2,2)=9/8, t-monotone, K(h^t,2)^(1/t) -> {limit:.6f} at t=1e-6")


# --------------------------------------------------------------------------
# 3. closed-form deformed representing functions
# --------------------------------------------------------------------------


def test_criterion_3_deformed_closed_forms():
    grid = np.geomspace(1e-2, 1e2, 50)
    worst = 0.0
    for w in (0.3, 0.5, 0.7):
        for a in (0.3, 0.5, 0.7):
            got = deformed_rep(arithmetic(w), geometric(a), grid)
            expect = (1 - w + w * grid**a) ** (1 / a)
            worst = max(worst, float(np.abs(got / expect - 1).max()))
            got = deformed_rep(arithmetic(w), harmonic(a), grid)
            c = (1 - a - w) * grid + w - a
            expect = (np.sqrt(c**2 + 4 * a * (1 - a) * grid) - c) / (2 * a)
            worst = max(worst, float(np.abs(got / expect - 1).max()))
    for a in (0.3, 0.5, 0.7):
        got = deformed_rep(geometric(0.5), arithmetic(a), grid)
        expect = (
            (1 - a) * (1 + grid) + np.sqrt((1 - a) ** 2 * (1 + grid) ** 2 + 4 * a * (2 - a) * grid)
        ) / (2 * (2 - a))
        worst = max(worst, float(np.abs(got / expect - 1).max()))
    assert worst < 1e-10
    report(3, f"three closed forms reproduced on 50-point grids, worst relative error {worst:.2e}")


# --------------------------------------------------------------------------
# 4. solver correctness on 100 seeded ensembles
# --------------------------------------------------------------------------


def _fixed_point_gap(base_spec, sigma, stack, x):
    xh, xih = spd_sqrt_pair(x)
    blocks = sym(np.einsum("ij,njk,kl->nil", xih, stack, xih))
    fw = eigh_apply(blocks, lambda t: rep_eval(sigma, t))
    z = eval_mean_stack(base_spec, fw).values
    return float(thompson(x, sym(xh @ z @ xh)))


def test_criterion_4_solver_correctness():
    start = time.perf_counter()
    sigmas = [geometric(0.5), harmonic(0.3), geometric(0.25), rep_transform(arithmetic(0.6), "adjoint")]
    worst_resid = 0.0
    ensembles = []
    for seed in range(100):
        dim = 2 + seed % 7
        n = 2 + seed % 4
        mats = [random_spd(dim, (0.6, 1.8), MASTER_SEED + 100 * seed + j) for j in range(n)]
        ensembles.append((dim, n, mats))
        base = MultiMeanSpec.arithmetic(Weights.uniform(n)) if seed % 2 else MultiMeanSpec.harmonic(Weights.uniform(n))
        sigma = sigmas[seed % 4]
        res = deformed_mean(base, sigma, mats)
        gap = _fixed_point_gap(base, sigma, np.stack([m.a for m in mats]), res.value.a)
        worst_resid = max(worst_resid, gap)
    assert worst_resid < 2e-11

    # certified Karcher solves, grouped by shape so the enclosure runs batched
    groups = {}
    for dim, n, mats in ensembles:
        groups.setdefault((dim, n), []).append(mats)
    worst_gap = 0.0
    for (dim, n), group in groups.items():
        stack = np.stack([[m.a for m in mats] for mats in group])
        out = eval_mean_stack(MultiMeanSpec.karcher(Weights.uniform(n)), stack)
        assert out.enclosure_gap is not None  # sandwich asserted inside
        worst_gap = max(worst_gap, float(out.enclosure_gap.max()))
    assert worst_gap < 1e-2

    # commuting inputs match the scalar weighted geometric mean
    worst_commuting = 0.0
    for seed in range(20):
        rng = np.random.default_rng(MASTER_SEED + seed)
        dim, n = 2 + seed % 4, 2 + seed % 3
        diags = rng.uniform(0.5, 2.0, size=(n, dim))
        w = rng.uniform(0.2, 1.0, n)
        w /= w.sum()
        mats = [validate_spd(np.diag(d)) for d in diags]
        got = karcher_mean(Weights(tuple(w)), mats, certify=False).value.a
        expect = np.diag(np.exp(np.einsum("n,nd->d", w, np.log(diags))))
        worst_commuting = max(worst_commuting, float(np.abs(got - expect).max()))
    assert worst_commuting < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(4, f"100 ensembles: worst fixed-point residual {worst_resid:.2e} < 2e-11, "
              f"worst enclosure gap {worst_gap:.2e} < 1e-2, commuting error "
              f"{worst_commuting:.2e} < 1e-9, criterion runtime {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 5. full inequality campaign
# --------------------------------------------------------------------------


GOLDEN_CRITERION_5 = Path(__file__).with_name("data") / "criterion5.jsonl"


def test_criterion_5_inequality_campaign(tmp_path):
    # the campaign config takes one r grid, so the r >= 1 and 0 < r <= 1
    # families run as two campaigns
    workers = max(2, min(8, os.cpu_count() or 2))
    results = []
    for r_range, rs in (("ge1", R_GE1), ("le1", R_LE1)):
        ids = tuple(f for f in sorted(FAMILIES) if FAMILIES[f]["r_range"] == r_range)
        config = CampaignConfig(ids, DIMS, rs, ALPHAS, TRIALS, MASTER_SEED, "-")
        results += run_campaign(config, threads=workers)
    failing = [r for r in results if not r["holds"]]
    assert not failing, f"{len(failing)} cells failed, first: {failing[0]}"
    # the committed report pins every cell: verdicts, error lines and worst
    # trials exactly, margins to 1e-12 relative or DT_TOL absolute, and the
    # r = 1 margins, where both sides are one mean, to exactly 0.  A change
    # that moves it regenerates the file from the report written here
    got = tmp_path / GOLDEN_CRITERION_5.name
    got.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in results))
    diff = report_diff.compare(report_diff.load(GOLDEN_CRITERION_5), report_diff.load(got))
    hint = f"{diff.summary()}; see python tests/report_diff.py {GOLDEN_CRITERION_5} {got}"
    assert not diff.breaks, hint
    moved = [(c, x, y) for c, key, x, y in diff.moves
             if key == "margin" and not (abs(y - x) <= 1e-12 * abs(x) or abs(y - x) <= DT_TOL)]
    assert not moved, f"{len(moved)} margins moved, first {moved[0]}; {hint}"
    assert all(r["margin"] == 0.0 for r in results if r["constants"]["r"] == 1.0)
    worst = min(results, key=lambda r: r["margin"])
    report(5, f"{len(results)} campaign cells x {TRIALS} trials all hold; worst margin "
              f"{worst['margin']:.3e} at {worst['inequality_id']}")


# --------------------------------------------------------------------------
# 6. optimality searches through the command line
# --------------------------------------------------------------------------


def test_criterion_6_optimality_search(tmp_path, capsys):
    arith = tmp_path / "arith.json"
    arith.write_text(json.dumps({"kind": "arithmetic", "params": {"w": 0.5}}))
    harm = tmp_path / "harm.json"
    harm.write_text(json.dumps({"kind": "harmonic", "params": {"alpha": 0.5}}))

    assert cli_main(["search", "--tau", str(arith), "--mode", "prop_6_1", "--r", "2"]) == EXIT_OK
    capsys.readouterr()
    assert cli_main(["search", "--tau", str(harm), "--mode", "prop_6_2", "--r", "0.5"]) == EXIT_OK
    capsys.readouterr()
    assert (
        cli_main(["search", "--tau", str(arith), "--mode", "prop_6_1", "--r", "1"])
        == EXIT_SEARCH_EXHAUSTED
    )
    capsys.readouterr()
    assert (
        cli_main(["search", "--tau", str(arith), "--mode", "prop_6_1", "--r", "0.5"])
        == EXIT_SEARCH_EXHAUSTED
    )
    capsys.readouterr()
    assert (
        cli_main(["search", "--tau", str(harm), "--mode", "prop_6_2", "--r", "2"])
        == EXIT_SEARCH_EXHAUSTED
    )
    capsys.readouterr()
    report(6, "violations found at (arithmetic, r=2) and (harmonic, r=0.5); none on the valid sides")


# --------------------------------------------------------------------------
# 7. complement-to-direct substitution on shared seeds
# --------------------------------------------------------------------------


def test_criterion_7_substitution_structure():
    from opmeans.inequalities import check_ah_family

    w = Weights((0.2, 0.3, 0.5))
    karch = MultiMeanSpec.karcher(w)
    checked = 0
    for seed in range(50):
        mats = [random_spd(3, (0.5, 2.0), MASTER_SEED + 1000 + 10 * seed + j) for j in range(3)]
        r = (0.25, 0.5, 0.75)[seed % 3]
        comp = [check_ah_family(karch, mats, r, v) for v in ("3.3", "3.4")]
        powered = [validate_spd(eigh_apply(m.a, lambda t: t**r)) for m in mats]
        direct = [check_ah_family(karch, powered, 1 / r, v) for v in ("3.1", "3.2")]
        assert all(c.holds for c in comp)
        assert all(d.holds for d in direct)
        checked += 1
    report(7, f"direct-family verdicts reproduced from complement verdicts under "
              f"(r -> 1/r, inputs -> r-th powers) on {checked} shared seeds")


# --------------------------------------------------------------------------
# 8. power-limit gaps
# --------------------------------------------------------------------------


def test_criterion_8_power_limit():
    ps = [2.0**-k for k in range(7)]
    worst_final = 0.0
    for seed in range(20):
        dim, n = 2 + seed % 4, 2 + seed % 3
        mats = [random_spd(dim, (0.6, 1.8), MASTER_SEED + 2000 + 10 * seed + j) for j in range(n)]
        w = Weights.uniform(n)
        gaps = lie_trotter_gap(MultiMeanSpec.power(w, 0.5), mats, ps)
        assert np.all(np.diff(gaps) <= 1e-9), f"gaps not shrinking at seed {seed}: {gaps}"
        worst_final = max(worst_final, gaps[-1])
    assert worst_final < 0.05
    report(8, f"20 ensembles: gap sequence nonincreasing, final gap at p=1/64 is "
              f"{worst_final:.3e} < 0.05")


# --------------------------------------------------------------------------
# 9. duality involutions
# --------------------------------------------------------------------------


def test_criterion_9_duality():
    worst_inv = 0.0
    worst_comm = 0.0
    for seed in range(10):
        n = 2 + seed % 3
        w = Weights.uniform(n)
        mats = [random_spd(3, (0.5, 2.0), MASTER_SEED + 3000 + 10 * seed + j) for j in range(n)]
        spec = MultiMeanSpec.power(w, 0.5) if seed % 2 else MultiMeanSpec.karcher(w)
        once = adjoint_eval(spec, mats).value.a
        twice = adjoint_eval(MultiMeanSpec.adjoint(spec), mats).value.a
        direct = eval_mean(spec, mats, certify=False).value.a
        worst_inv = max(worst_inv, float(np.abs(twice - direct).max() / np.abs(direct).max()))

        sigma = geometric(0.5) if seed % 2 else harmonic(0.4)
        base = MultiMeanSpec.arithmetic(w)
        lhs = adjoint_eval(MultiMeanSpec.deformed(base, sigma), mats).value.a
        rhs = eval_mean(
            MultiMeanSpec.deformed(MultiMeanSpec.harmonic(w), rep_transform(sigma, "adjoint")),
            mats,
        ).value.a
        worst_comm = max(worst_comm, float(np.abs(lhs - rhs).max() / np.abs(rhs).max()))
    assert worst_inv < 1e-9
    assert worst_comm < 1e-8
    report(9, f"double adjoint error {worst_inv:.2e} < 1e-9; adjoint-deformation "
              f"commutation error {worst_comm:.2e} < 1e-8")
