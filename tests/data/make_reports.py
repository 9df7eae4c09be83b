"""Regenerate ``reports.tsv``: one pinned report per point of a fixed grid.

Run from the repository root with the package importable::

    PYTHONPATH=src python tests/data/make_reports.py

Each row holds method, d, N and alpha (empty for the default), ``float.hex``
of the generation probability p, ``ok`` (p within the verify gate,
``analysis._REL_TOLERANCE`` relative, of ``closed_form_probability``, or both
0) and the first 16 hex digits of the sha256 of ``repr(report.to_dict())``.
The points are the domain scan (M1/M2 at d 2-32 x N 1-40; M3/M4 at
power-of-two d 2-64 x N 1-12, M3 only where d*N <= 200), the console
``generate`` rows CI runs, and M1 at four fixed alphas over d 2-8 x N 1-12.
The script prints which digests moved against the file it replaces and the
largest relative move of p.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from noongen import MethodConfig, analysis, closed_form_probability, run_method

PATH = Path(__file__).with_name("reports.tsv")
HEADER = ("method", "d", "N", "alpha", "p_hex", "ok", "digest")

# (method, d, N, alpha_sq) of every console ``generate`` row in CI.
CONSOLE = (
    (4, 4, 4, None), (1, 3, 3, None), (3, 8, 4, None), (4, 64, 8, None),
    (4, 512, 4, None), (4, 1024, 2, None), (4, 2048, 2, None), (4, 4, 24, None),
    (3, 8, 5, None), (3, 4, 7, None), (3, 4, 8, None), (2, 2, 26, None),
    (1, 2, 26, None), (2, 16, 6, None), (1, 4, 6, 1.5), (1, 12, 12, None),
    (2, 16, 12, None), (4, 2, 2, None), (4, 2, 150, None), (4, 4, 120, None),
)
ALPHAS = (0.0, 1e-5, 0.7, 1.1 + 0.4j)


def points() -> list[tuple]:
    """Every (method, d, N, alpha) pinned, in file order, each once."""
    grid = [
        (method, d, n, None)
        for method in (1, 2)
        for d in range(2, 33)
        for n in range(1, 41)
    ]
    grid += [
        (method, 2**level, n, None)
        for method in (3, 4)
        for level in range(1, 7)
        for n in range(1, 13)
        if method == 4 or 2**level * n <= 200
    ]
    grid += [
        (method, d, n, None if alpha_sq is None else math.sqrt(alpha_sq))
        for method, d, n, alpha_sq in CONSOLE
    ]
    grid += [
        (1, d, n, alpha) for alpha in ALPHAS for d in range(2, 9) for n in range(1, 13)
    ]
    return list(dict.fromkeys(grid))


def row(point: tuple) -> tuple[str, ...]:
    """The file row of ``point``, computed by the package in this process."""
    method, d, n, alpha = point
    report = run_method(MethodConfig(method, d, n, alpha))
    p = report.generation_probability
    alpha_sq = None if alpha is None else abs(alpha) ** 2
    want = closed_form_probability(method, d, n, alpha_sq)
    ok = abs(p - want) <= analysis._REL_TOLERANCE * want if want > 0 else p == 0.0
    digest = hashlib.sha256(repr(report.to_dict()).encode()).hexdigest()[:16]
    cells = (method, d, n, "" if alpha is None else repr(alpha), p.hex())
    return (*map(str, cells), "true" if ok else "false", digest)


def parse_alpha(cell: str):
    """An alpha cell back as the value it was written from: None, float or complex."""
    if not cell:
        return None
    return complex(cell) if "j" in cell else float(cell)


def read(path: Path = PATH) -> list[tuple[str, ...]]:
    """The rows of ``path`` after its header, as tuples of cells."""
    lines = path.read_text().splitlines()
    if tuple(lines[0].split("\t")) != HEADER:
        raise ValueError(f"{path.name} header is {lines[0]!r}")
    return [tuple(line.split("\t")) for line in lines[1:]]


def main() -> None:
    old = {r[:4]: r for r in read()} if PATH.exists() else {}
    rows = [row(point) for point in points()]
    moved, largest = [], 0.0
    for new in rows:
        before = old.get(new[:4])
        if before is None or before[4:] == new[4:]:
            continue
        moved.append(new[:4])
        p_old, p_new = float.fromhex(before[4]), float.fromhex(new[4])
        if p_old != p_new:
            scale = max(abs(p_old), abs(p_new))
            largest = max(largest, abs(p_new - p_old) / scale)
    PATH.write_text("\n".join("\t".join(r) for r in (HEADER, *rows)) + "\n")
    added = sum(r[:4] not in old for r in rows)
    print(f"{len(rows)} rows written to {PATH.name}, {added} new")
    print(f"{len(moved)} rows moved; largest relative move of p: {largest:.3g}")
    for key in moved:
        print("moved:", " ".join(key))


if __name__ == "__main__":
    main()
