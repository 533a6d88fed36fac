"""Compare two benchmark result files: ``python3 bench/compare.py A.json B.json``.

Both files are written by ``bench/run.py --out``.  For every workload and
end-to-end metric the table shows each side's median, quartiles and
sample count, and a verdict for B against A:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the spread (quartile distance over median) of either
  side is wider than the bound, and not every sample of B beats every
  sample of A;
* ``no worse``   -- otherwise.

Exits 1 if any pairing is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import SPEC, quartiles


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    if sign * (mb - ma) > bound * abs(ma):
        return "worse"
    spread = max((q3 - q1) / abs(m) if m else 0.0
                 for q1, m, q3 in (quartiles(a), quartiles(b)))
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not b_beats_all:
        return "unresolved"
    return "no worse"


def compare(a: dict, b: dict) -> list[tuple]:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            sa = a["workloads"][workload]["metrics"][name]["samples"]
            sb = b["workloads"][workload]["metrics"][name]["samples"]
            rows.append((workload, name, spec["unit"], sa, sb,
                         verdict(sa, sb, spec["better"], spec["bound"])))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    bad = 0
    print(f"{'workload':<10} {'metric':<12} {'unit':<4} "
          f"{'A median [q1, q3] n':>34} {'B median [q1, q3] n':>34}  verdict")
    for workload, name, unit, sa, sb, result in compare(a, b):
        cells = []
        for values in (sa, sb):
            q1, median, q3 = quartiles(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}")
        print(f"{workload:<10} {name:<12} {unit:<4} {cells[0]:>34} "
              f"{cells[1]:>34}  {result}")
        bad += result != "no worse"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
