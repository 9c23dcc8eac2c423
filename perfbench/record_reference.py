"""Record the campaign reference: verdict and margin of every cell per seed.

    python3 perfbench/record_reference.py --seeds 0 1 2 [--output FILE]

Seeds already in the output file are kept; the ones given are (re)computed.
The ``campaign`` workload compares each cell against this file when it holds
the run's seed, and checks only the verdicts otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import MARGIN_TOL, REFERENCE, Campaign  # noqa: E402


def record(seed):
    campaign = Campaign()
    state = campaign.prepare(seed, None)
    cells = {}
    for family, alpha, rs in state["groups"]:
        for _, _, rep in campaign.run_group(seed, family, alpha, rs):
            if isinstance(rep, Exception):
                raise rep
            cells[rep.inequality_id] = {"holds": rep.holds, "margin": rep.margin}
    return cells


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--output", type=Path, default=REFERENCE)
    args = parser.parse_args(argv)
    ref = {"margin_tol": MARGIN_TOL, "seeds": {}}
    if args.output.exists():
        ref = json.loads(args.output.read_text())
    for seed in args.seeds:
        ref["seeds"][str(seed)] = record(seed)
        print(f"seed {seed}: {sum(c['holds'] for c in ref['seeds'][str(seed)].values())} cells hold", flush=True)
    ref["seeds"] = dict(sorted(ref["seeds"].items(), key=lambda kv: int(kv[0])))
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(ref, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
