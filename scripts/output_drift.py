"""Report the numeric drift between two trees of kept benchmark outputs.

Compares the CSVs that ``scripts/output_hashes.py --keep DIR`` leaves under
``DIR/<workload>/seed<s>/<i>/``, file by file, and prints:

- per workload, CSV name and column, the largest absolute and the largest
  relative difference of the numeric fields, the relative difference being
  |a - b| / max(|a|, |b|);
- every row whose non-numeric fields differ (a flipped ``pass``, say), or
  where only one side is finite;
- every difference in header or row count, and every CSV that only one
  tree has.

Two checkouts, one command each, then the report:

    python3 scripts/output_hashes.py --seeds 0 5 --keep /tmp/parent  # parent
    python3 scripts/output_hashes.py --seeds 0 5 --keep /tmp/change  # change
    python3 scripts/output_drift.py /tmp/parent /tmp/change
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from itertools import zip_longest


def csv_files(root: str) -> set:
    """Paths of every CSV under root, relative to it."""
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.endswith(".csv"):
                found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def compare(rel: str, parent: str, change: str, stats: dict, notes: list) -> None:
    """Fold the differences of one CSV pair into stats[(workload, csv, column)]
    = [max_abs, max_rel] and append the structural ones to notes."""
    group = (rel.split(os.sep)[0], os.path.basename(rel))
    with open(os.path.join(parent, rel), newline="") as fa, open(
        os.path.join(change, rel), newline=""
    ) as fb:
        ra, rb = csv.reader(fa), csv.reader(fb)
        header, header_b = next(ra, []), next(rb, [])
        if header != header_b:
            notes.append(f"{rel}: header {header} -> {header_b}")
            return
        cells = [stats.setdefault(group + (col,), [0.0, 0.0]) for col in header]
        rows = [0, 0]
        for row, (a, b) in enumerate(zip_longest(ra, rb), start=1):
            rows[0] += a is not None
            rows[1] += b is not None
            if a is None or b is None or a == b:
                continue
            for cell, col, x, y in zip(cells, header, a, b):
                if x == y:
                    continue
                try:
                    fx, fy = float(x), float(y)
                except ValueError:
                    fx = fy = math.nan
                if not (math.isfinite(fx) and math.isfinite(fy)):
                    notes.append(f"{rel}: row {row}, {col}: {x} -> {y}")
                    continue
                diff = abs(fx - fy)
                cell[0] = max(cell[0], diff)
                cell[1] = max(cell[1], diff / max(abs(fx), abs(fy)))
        if rows[0] != rows[1]:
            notes.append(f"{rel}: {rows[0]} -> {rows[1]} data rows")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="tree kept from the parent checkout")
    ap.add_argument("change", help="tree kept from the changed checkout")
    args = ap.parse_args(argv)
    in_parent, in_change = csv_files(args.parent), csv_files(args.change)
    stats: dict = {}
    notes = [f"{rel}: only in {args.parent}" for rel in sorted(in_parent - in_change)]
    notes += [f"{rel}: only in {args.change}" for rel in sorted(in_change - in_parent)]
    for rel in sorted(in_parent & in_change):
        compare(rel, args.parent, args.change, stats, notes)
    print(f"{'workload':<20} {'csv':<18} {'column':<32} {'max_abs':>10} {'max_rel':>10}")
    for (workload, name, col), (max_abs, max_rel) in sorted(stats.items()):
        print(f"{workload:<20} {name:<18} {col:<32} {max_abs:>10.3g} {max_rel:>10.3g}")
    for note in notes:
        print(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
