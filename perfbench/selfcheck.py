"""Thread-invariance self-check for the ``verify_cli`` workload.

    python3 perfbench/selfcheck.py --seeds 0 1

For each seed and each of the workload's campaign configs, writes the
``opmeans verify`` report with ``--threads 1`` and with ``--threads 2`` and
requires the two files to be byte-identical (the CLI's report contract) and
every gate of the workload to pass on both.  It is not part of the timed
runs.  Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from opmeans import cli  # noqa: E402
from workloads import VerifyCli  # noqa: E402


def check(seed, workdir):
    verify = VerifyCli()
    ok = True
    for path, out, cells in verify.prepare(seed, workdir)["calls"]:
        reports = []
        for threads in (1, 2):
            report = f"{out}.t{threads}"
            code = cli.main(verify.argv(path, report, threads))
            good, note = verify.gate(code, report, cells)
            if not good:
                print(f"seed {seed} {Path(path).name} threads {threads}: {note}")
                ok = False
            reports.append(Path(report).read_bytes())
        same = reports[0] == reports[1]
        ok &= same
        print(f"seed {seed} {Path(path).name}: {cells} cells, threads 1 vs 2 {'identical' if same else 'DIFFER'}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=out))
    try:
        ok = all([check(seed, workdir) for seed in args.seeds])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
