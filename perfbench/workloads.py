"""The three benchmark workloads: inputs from a seed, one pass, and its gates.

Each workload is a closed loop with one client.  ``prepare`` writes the
inputs a user would hand the program (campaign, spec and matrix JSON files);
``run_pass`` runs one fixed pass of units, times each item, checks every
output after its timer stops and calls the host probe between units.  A pass always holds the same units, so
metrics over whole passes do not depend on how many passes a run fits.

Library entry points are looked up on their modules at call time, so the
traced run sees the wrappers that the tracer binds there.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from opmeans import cli, inequalities
from opmeans.errors import OpmeansError
from opmeans.psd_core import matrix_to_json, random_spd

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "campaign.json"

TRIALS = 200
R_GE1 = (1.0, 1.5, 2.0, 3.0)
R_LE1 = (0.25, 0.5, 0.75, 1.0)

# Margin agreement with the recorded reference.  The fixed-point solvers stop
# on a Thompson step, not on an error bound; the true error behind a 1e-11
# step reaches about 6e-10 at t = 1/64, and a bracket check combines up to
# r + 1 <= 4 such solves, so margins may move by about 2.4e-9.
MARGIN_TOL = 1e-8
ENCLOSURE_GAP_MAX = 1e-2
KARCHER_RESIDUAL_MAX = 1e-8

# Usual time of one HostProbe call on the reference host, the 2-vCPU Intel
# Xeon VM the baseline was recorded on.
PROBE_REF_S = 0.0035


class HostProbe:
    """A fixed numpy kernel, timed between units to track the host's speed.

    Shared hosts drift by up to about +-20% over whole runs.  The probe mixes
    the two kinds of work the workloads do (a batched 600 x 5 x 5
    eigendecomposition with a rebuild, and single small-matrix calls) and
    touches no opmeans code, so a change to the library cannot move it.
    ``times`` and ``ends`` hold each call's duration and end time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((620, 5, 5))
        spd = g @ np.swapaxes(g, -1, -2) + 5.0 * np.eye(5)
        self.batch, self.small = spd[:600], spd[600:]
        self.times, self.ends = [], []

    def __call__(self, repeats=1):
        for _ in range(repeats):
            t0 = time.perf_counter()
            w, v = np.linalg.eigh(self.batch)
            np.einsum("...ij,...j,...kj->...ik", v, np.log(w), v)
            for a in self.small:
                w, v = np.linalg.eigh(a)
                (v * np.sqrt(w)) @ v.T
            t1 = time.perf_counter()
            self.times.append(t1 - t0)
            self.ends.append(t1)


@dataclass
class Item:
    """One timed unit of user-visible work and the outcome of its gates."""

    start: float
    latency_s: float
    trials: int
    ok: bool
    note: str = ""


def _r_grid(family):
    return R_GE1 if inequalities.FAMILIES[family]["r_range"] == "ge1" else R_LE1


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def warm_up(workdir):
    """First-call costs (LAPACK set-up, lazy imports) paid before timing."""
    inequalities.run_cell("5.10", 2, 1.5, None, 4, 0)
    spec = _write_json(workdir / "warm_spec.json", {"kind": "karcher", "weights": [0.5, 0.5]})
    mats = _write_json(workdir / "warm_mats.json", [matrix_to_json(np.eye(2)), matrix_to_json(2 * np.eye(2))])
    if cli.main(["mean", "--spec", spec, "--matrices", mats, "--no-certify", "--output", str(workdir / "warm_out.json")]):
        raise RuntimeError("warm-up mean call failed")


# --------------------------------------------------------------------------
# campaign: the criterion-5 grouped library path at dim 5, alpha 1/2
# --------------------------------------------------------------------------


class Campaign:
    """Every family at dim 5 and alpha 1/2, 200 trials, grouped like criterion 5.

    Per (family, dim, alpha) group: ``_gen_cell_data`` once, then ``run_cell``
    over the family's r grid with shared ``data`` and ``cache``.  Each group's
    data generation is timed into its first cell.
    """

    name = "campaign"
    threads = 1
    dim = 5
    alpha = 0.5

    def prepare(self, seed, workdir):
        groups = []
        for family in sorted(inequalities.FAMILIES):
            alpha = self.alpha if inequalities.FAMILIES[family]["needs_alpha"] else None
            groups.append((family, alpha, _r_grid(family)))
        ref = None
        if REFERENCE.exists():
            ref = json.loads(REFERENCE.read_text())["seeds"].get(str(seed))
        return {"seed": seed, "groups": groups, "reference": ref}

    def run_group(self, seed, family, alpha, rs):
        """Time one group; return ``[(start, latency_s, report or error)]`` per cell."""
        out = []
        t0 = time.perf_counter()
        try:
            data = inequalities._gen_cell_data(family, self.dim, alpha, TRIALS, seed)
        except OpmeansError as exc:
            return [(t0, time.perf_counter() - t0, exc)] * len(rs)
        cache = {}
        for r in rs:
            try:
                res = inequalities.run_cell(family, self.dim, r, alpha, TRIALS, seed, data=data, cache=cache)
            except OpmeansError as exc:
                res = exc
            t1 = time.perf_counter()
            out.append((t0, t1 - t0, res))
            t0 = t1
        return out

    def run_pass(self, state, probe):
        items = []
        ref = state["reference"]
        for family, alpha, rs in state["groups"]:
            for start, latency, res in self.run_group(state["seed"], family, alpha, rs):
                items.append(Item(start, latency, TRIALS, *self.gate(res, ref)))
            probe(repeats=3)
        return items

    @staticmethod
    def gate(res, ref):
        if isinstance(res, Exception):
            return False, f"{type(res).__name__}: {res}"
        if not res.holds:
            return False, f"{res.inequality_id} does not hold (margin {res.margin:.3e})"
        if ref is None:
            return True, ""
        want = ref.get(res.inequality_id)
        if want is None:
            return False, f"{res.inequality_id} missing from the reference"
        if want["holds"] != res.holds or abs(want["margin"] - res.margin) > MARGIN_TOL:
            return False, f"{res.inequality_id} margin {res.margin!r} vs reference {want['margin']!r}"
        return True, ""


# --------------------------------------------------------------------------
# verify_cli: the ungrouped CLI campaign path with two worker threads
# --------------------------------------------------------------------------


class VerifyCli:
    """``opmeans verify --threads 2`` in-process on two campaign configs.

    The CLI applies one r grid to every family, so the r >= 1 and r <= 1
    families need a config each.
    """

    name = "verify_cli"
    threads = 2
    configs = (
        ("ge1", ["4.6", "4.8", "5.3", "L5.1"], list(R_GE1), 128),
        ("le1", ["4.7", "4.9"], list(R_LE1), 96),
    )

    def prepare(self, seed, workdir):
        calls = []
        for tag, ids, rs, cells in self.configs:
            cfg = {
                "inequality_ids": ids,
                "dimensions": [2, 3, 5, 8],
                "r_values": rs,
                "alpha_values": [0.25, 0.5, 1.0],
                "trials": TRIALS,
                "seed": seed,
            }
            path = _write_json(workdir / f"campaign_{tag}.json", cfg)
            calls.append((path, str(workdir / f"report_{tag}.jsonl"), cells))
        return {"calls": calls}

    def argv(self, path, out, threads):
        return ["verify", path, "--threads", str(threads), "--output", out]

    def run_pass(self, state, probe):
        items = []
        for path, out, cells in state["calls"]:
            t0 = time.perf_counter()
            code = cli.main(self.argv(path, out, self.threads))
            latency = time.perf_counter() - t0
            items.append(Item(t0, latency, cells * TRIALS, *self.gate(code, out, cells)))
        return items

    @staticmethod
    def gate(code, out, cells):
        if code != cli.EXIT_OK:
            return False, f"exit code {code}"
        lines = [json.loads(line) for line in Path(out).read_text().splitlines()]
        errors = [line for line in lines[:-1] if "error" in line or not line.get("holds")]
        summary = lines[-1].get("summary", {})
        want = {"total": cells, "passed": cells, "failed": 0, "errors": 0}
        if errors or summary != want:
            return False, f"summary {summary}, {len(errors)} bad lines"
        return True, ""


# --------------------------------------------------------------------------
# mean_certified: single certified Karcher solves through the CLI
# --------------------------------------------------------------------------


def karcher_residual(mats, x):
    """Operator norm of sum_i w_i log(X^-1/2 A_i X^-1/2), uniform weights."""
    w, v = np.linalg.eigh(x)
    xih = (v / np.sqrt(w)) @ v.T
    total = np.zeros_like(x)
    for a in mats:
        ew, ev = np.linalg.eigh(xih @ a @ xih)
        total += (ev * np.log(ew)) @ ev.T
    return float(np.abs(np.linalg.eigvalsh(total / len(mats))).max())


class MeanCertified:
    """``opmeans mean`` on a Karcher spec with certification, one ensemble a call.

    Ensembles follow the criterion-4 recipe: dim 2 + s % 7, n 2 + s % 4,
    spectra pinned to [0.6, 1.8].  A pass runs s = 0..55, which holds every
    (dim, n) pair twice.
    """

    name = "mean_certified"
    threads = 1
    ensembles = 56

    def prepare(self, seed, workdir):
        calls = []
        for s in range(self.ensembles):
            dim, n = 2 + s % 7, 2 + s % 4
            mats = [random_spd(dim, (0.6, 1.8), 10_000 * seed + 100 * s + j).a for j in range(n)]
            spec = _write_json(workdir / f"spec_{s}.json", {"kind": "karcher", "weights": [1.0 / n] * n})
            path = _write_json(workdir / f"mats_{s}.json", [matrix_to_json(m) for m in mats])
            calls.append((spec, path, str(workdir / f"mean_{s}.json"), mats))
        return {"calls": calls}

    def run_pass(self, state, probe):
        items = []
        for spec, path, out, mats in state["calls"]:
            t0 = time.perf_counter()
            code = cli.main(["mean", "--spec", spec, "--matrices", path, "--output", out])
            latency = time.perf_counter() - t0
            items.append(Item(t0, latency, 1, *self.gate(code, out, mats)))
            probe()
        return items

    @staticmethod
    def gate(code, out, mats):
        if code != cli.EXIT_OK:
            return False, f"exit code {code}"
        res = json.loads(Path(out).read_text())
        gap = res.get("enclosure_gap")
        if gap is None or not gap < ENCLOSURE_GAP_MAX:
            return False, f"enclosure gap {gap}"
        resid = karcher_residual(mats, np.asarray(res["value"]["entries"], dtype=float))
        if not resid < KARCHER_RESIDUAL_MAX:
            return False, f"Karcher residual {resid:.3e}"
        return True, ""


WORKLOADS = {w.name: w for w in (Campaign(), VerifyCli(), MeanCertified())}
