"""Compare two campaign reports cell by cell.

    python tests/report_diff.py OLD NEW

A report is the JSON lines ``opmeans verify`` writes, one per cell; a
summary line is skipped.  The command prints every verdict flip, error line
added or removed, worst-trial change (the trial index or the witness seed
of a cell's worst trial) and other change to a field that is not a float,
then one summary line: those counts, the byte-identical line count, the
largest absolute and relative margin moves with their cells, and the
sha256 of each report (of its cell lines joined by newlines).  It exits 1
if a cell was added or removed or any of those changes occurred, else 0.
``tests/data/criterion5.jsonl`` is the criterion-5 report that
``test_criterion_5_inequality_campaign`` compares its results to.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field

WORST = ("witness_seed", "constants.worst_trial")  # the fields that name a cell's worst trial


def load(path):
    """The cell lines of the report at ``path``, as written."""
    with open(path) as f:
        return [line for line in f.read().splitlines() if line and not line.startswith('{"summary"')]


def sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _flat(obj, prefix=""):
    """``{dotted key: value}`` of a report line's nested dicts."""
    out = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


@dataclass
class Diff:
    old_sha: str
    new_sha: str
    cells: int
    identical: int
    added: list = field(default_factory=list)  # cell ids only in the new report
    removed: list = field(default_factory=list)
    flips: list = field(default_factory=list)  # (cell, old holds, new holds)
    errors_added: list = field(default_factory=list)  # (cell, error)
    errors_removed: list = field(default_factory=list)
    worst: list = field(default_factory=list)  # (cell, key, old, new), one row per key of WORST that changed
    changed: list = field(default_factory=list)  # (cell, key, old, new) for any other field not a float
    moves: list = field(default_factory=list)  # (cell, key, old, new) for every float that moved

    @property
    def breaks(self):
        """Whether a cell, a verdict, an error line or a worst trial changed."""
        return any((self.added, self.removed, self.flips, self.errors_added, self.errors_removed,
                    self.worst, self.changed))

    def largest(self, key="margin", relative=False):
        """``(move, cell)`` of the largest move of ``key``, absolute or relative to the old value."""
        best = (0.0, None)
        for cell, k, old, new in self.moves:
            if k == key and (old or not relative):
                best = max(best, (abs(new - old) / (abs(old) if relative else 1.0), cell))
        return best

    def summary(self):
        (move, at), (rel, rel_at) = self.largest(), self.largest(relative=True)
        return (
            f"{self.cells} cells ({len(self.added)} added, {len(self.removed)} removed); "
            f"{len(self.flips)} verdict flips; {len(self.errors_added)} error lines added, "
            f"{len(self.errors_removed)} removed; {len({row[0] for row in self.worst})} worst-trial changes; "
            f"{self.identical} of {self.cells} lines byte-identical; largest margin move "
            f"{move:.2g} at {at}, relative {rel:.2g} at {rel_at}; "
            f"sha256 {self.old_sha[:8]}... -> {self.new_sha[:8]}..."
        )


def compare(old, new):
    """The :class:`Diff` of reports ``old`` and ``new``, each a list of cell lines."""
    olds = {json.loads(line)["inequality_id"]: line for line in old}
    news = {json.loads(line)["inequality_id"]: line for line in new}
    out = Diff(sha256(old), sha256(new), len(news), sum(olds.get(c) == line for c, line in news.items()),
               added=[c for c in news if c not in olds], removed=[c for c in olds if c not in news])
    for cell in (c for c in news if c in olds):
        a, b = _flat(json.loads(olds[cell])), _flat(json.loads(news[cell]))
        if a.get("holds") != b.get("holds"):
            out.flips.append((cell, a.get("holds"), b.get("holds")))
        if "error" in b and "error" not in a:
            out.errors_added.append((cell, b["error"]))
        elif "error" in a and "error" not in b:
            out.errors_removed.append((cell, a["error"]))
        if ("error" in a) != ("error" in b):  # the fields of an error line are not a report's
            continue
        for key in sorted((set(a) | set(b)) - {"holds"}):
            x, y = a.get(key), b.get(key)
            if isinstance(x, float) and isinstance(y, float):
                if x != y:
                    out.moves.append((cell, key, x, y))
            elif x != y:
                (out.worst if key in WORST else out.changed).append((cell, key, x, y))
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/report_diff.py OLD NEW", file=sys.stderr)
        return 2
    diff = compare(load(argv[0]), load(argv[1]))
    for c in diff.added:
        print(f"added {c}")
    for c in diff.removed:
        print(f"removed {c}")
    for c, x, y in diff.flips:
        print(f"flip {c}: holds {x} -> {y}")
    for c, e in diff.errors_added:
        print(f"error added {c}: {e}")
    for c, e in diff.errors_removed:
        print(f"error removed {c}: {e}")
    for kind, rows in (("worst trial", diff.worst), ("changed", diff.changed)):
        for c, key, x, y in rows:
            print(f"{kind} {c} {key}: {x} -> {y}")
    print(diff.summary())
    return 1 if diff.breaks else 0


if __name__ == "__main__":
    sys.exit(main())
