"""Command-line front end: compute means, run verification campaigns, search.

Exit codes are part of the contract so scripts and CI can branch on them:

    0  success (mean converged / all checks hold / counterexample found)
    1  input or configuration error, including command-line usage errors
    2  solver did not converge
    3  at least one inequality check failed (witnesses embedded)
    4  counterexample search exhausted its budget without a hit

``verify`` emits JSON lines, one report per campaign cell followed by one
summary line, buffered and written in deterministic cell order no matter
how many worker processes (``--threads``) run the cells.

No subcommand takes a solver tolerance or iteration cap: every solve
stops at ``multimeans.DT_TOL``, so a report is a function of its config.
``mean`` certifies a Karcher result unless given ``--no-certify``;
``verify`` and ``--recheck`` never certify.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import ConfigError, NoConvergence, OpmeansError
from .inequalities import (
    CampaignConfig,
    kantorovich,
    optimality_scan,
    recheck,
    run_campaign,
    verify_counterexample,
)
from .meanfns import repfn_from_json
from .multimeans import MeanResult, eval_mean_stack, meanspec_from_json
from .psd_core import spectral_from_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CHECK_FAILED = 3
EXIT_SEARCH_EXHAUSTED = 4


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    # ValueError covers JSON and text decoding, RecursionError too deep a nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc


def _strict(x):
    return x if x is None or math.isfinite(x) else None  # strict JSON has no Infinity or NaN: null


def _emit(text, output):
    if output and output != "-":
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_mean(args) -> int:
    spec = meanspec_from_json(_load_json(args.spec))
    raw = _load_json(args.matrices)
    mats_json = raw.get("matrices") if isinstance(raw, dict) else raw
    if not isinstance(mats_json, list):
        raise ConfigError("matrices JSON must be a list of matrices or an object with one under 'matrices'")
    stack = spectral_from_json(mats_json)  # validated by one eigh, which the solve reads
    try:
        result = MeanResult.of(eval_mean_stack(spec, stack, certify=not args.no_certify))
    except NoConvergence as exc:
        diag = {
            "error": "NoConvergence",
            "message": str(exc),
            "residual": _strict(exc.residual),
            "members": [{**m, "bound": _strict(m["bound"]), "residual": _strict(m["residual"])}
                        for m in exc.members],
        }
        _emit(json.dumps(diag, indent=2) + "\n", args.output)
        return EXIT_NO_CONVERGENCE
    _emit(json.dumps(result.to_json(), indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.recheck:
        report = recheck(_load_json(args.recheck))
        _emit(json.dumps(report.to_json(), indent=2) + "\n", args.output)
        return EXIT_OK if report.holds else EXIT_CHECK_FAILED
    config = CampaignConfig.from_json(_load_json(args.campaign))
    results = run_campaign(config, args.threads)
    lines = [json.dumps(r, sort_keys=True) for r in results]
    passed = sum(1 for r in results if r.get("holds") and "error" not in r)
    errors = sum(1 for r in results if "error" in r)
    failed = len(results) - passed - errors
    summary = {
        "summary": {"total": len(results), "passed": passed, "failed": failed, "errors": errors}
    }
    lines.append(json.dumps(summary, sort_keys=True))
    out_path = args.output or config.output_path
    _emit("\n".join(lines) + "\n", out_path)
    if errors:
        return EXIT_INPUT
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_search(args) -> int:
    tau = repfn_from_json(_load_json(args.tau))
    cx = optimality_scan(tau, args.r, args.mode)
    if cx is None:
        _emit("none\n", args.output)
        return EXIT_SEARCH_EXHAUSTED
    if not verify_counterexample(cx, tau):  # pragma: no cover - scan output self-checks
        raise ConfigError("scan produced a counterexample that does not re-verify")
    _emit(json.dumps(cx.to_json(), indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_kantorovich(args) -> int:
    _emit(f"{kantorovich(args.h, args.p):.17g}\n", args.output)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache  # built on first use, not at import; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opmeans",
        description="Matrix means of positive definite matrices and inequality verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="compute a mean of SPD matrices")
    p_mean.add_argument("--spec", required=True, help="mean description JSON file")
    p_mean.add_argument("--matrices", required=True, help="JSON file with a list of matrices")
    p_mean.add_argument("--no-certify", action="store_true", help="skip the Karcher enclosure certificate")
    p_mean.add_argument("--output", default=None, help="write result here instead of stdout")
    p_mean.set_defaults(func=cmd_mean)

    p_verify = sub.add_parser("verify", help="run an inequality verification campaign")
    p_verify.add_argument("campaign", nargs="?", help="campaign config JSON file")
    p_verify.add_argument("--recheck", default=None, help="re-run one failed report line (JSON file)")
    p_verify.add_argument(
        "--threads", type=_positive_int, default=1,
        help="worker processes for the campaign's cell groups (at most one per group and per core)",
    )
    p_verify.add_argument("--output", default=None, help="report path (JSON lines); '-' for stdout")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="search for r-range counterexamples")
    p_search.add_argument("--tau", required=True, help="representing-function JSON file")
    p_search.add_argument("--mode", required=True, choices=["prop_6_1", "prop_6_2"])
    p_search.add_argument("--r", type=float, required=True)
    p_search.add_argument("--output", default=None)
    p_search.set_defaults(func=cmd_search)

    p_k = sub.add_parser("kantorovich", help="evaluate the generalized Kantorovich constant")
    p_k.add_argument("h", type=float)
    p_k.add_argument("p", type=float)
    p_k.add_argument("--output", default=None)
    p_k.set_defaults(func=cmd_kantorovich)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and bool(args.campaign) == bool(args.recheck):
            parser.error("verify takes either a campaign file or --recheck")
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OpmeansError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
