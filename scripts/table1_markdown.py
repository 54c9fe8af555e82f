#!/usr/bin/env python3
"""Render bench_output.txt's [table1] rows as the EXPERIMENTS.md table.

Keeps the LAST occurrence of each (test, paradigm, accel) cell so reruns
appended to the file supersede stale sections.
"""

import re
import sys
from pathlib import Path

ROW = re.compile(
    r"\[table1\] (\S+)\s+(FR|FPR)\s*/(\S+)\s+time=\s*([0-9.]+)s"
    r" face_pairs=\s*(\d+) matches=\s*(\d+) paper=(\S+)"
)


def main(path="bench_output.txt"):
    cells = {}
    for line in Path(path).read_text().splitlines():
        match = ROW.search(line)
        if match:
            test, paradigm, accel, seconds, pairs, matches, paper = match.groups()
            cells[(test, paradigm, accel)] = (float(seconds), int(pairs), paper)

    tests = ["INT-NN", "WN-NN", "WN-NV", "NN-NN", "NN-NV"]
    accels = ["B", "P"]
    print("| Test | Accel | FR s (ours) | FPR s (ours) | FR s (paper) | FPR s (paper) | FPR speedup (ours / paper) |")
    print("|---|---|---|---|---|---|---|")
    for test in tests:
        for accel in accels:
            fr = cells.get((test, "FR", accel))
            fpr = cells.get((test, "FPR", accel))
            if not fr or not fpr:
                continue
            ours = fr[0] / fpr[0] if fpr[0] else float("inf")
            paper_fr, paper_fpr = fr[2], fpr[2]
            try:
                paper_ratio = f"{float(paper_fr) / float(paper_fpr):.1f}×"
            except ValueError:
                paper_ratio = "n/a"
            print(
                f"| {test} | {accel} | {fr[0]:.2f} | {fpr[0]:.2f} | "
                f"{paper_fr} | {paper_fpr} | {ours:.1f}× / {paper_ratio} |"
            )


if __name__ == "__main__":
    main(*sys.argv[1:])
