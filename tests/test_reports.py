"""The committed report digests: every right report is reproduced bit for bit.

``data/reports.tsv`` pins p and a digest of every report field at each point
of ``data/make_reports.py``'s grid; that script regenerates the file.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "make_reports", Path(__file__).with_name("data") / "make_reports.py"
)
make_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_reports)


def test_file_covers_the_grid():
    keys = [row[:4] for row in make_reports.read()]
    want = [
        (*map(str, point[:3]), "" if point[3] is None else repr(point[3]))
        for point in make_reports.points()
    ]
    assert keys == want


def test_reports_reproduce_their_digests():
    # A row the closed form calls wrong (ok false) is recomputed, so it must
    # still run, but not compared: the file pins no defect, and a fix of
    # such a point needs no edit here.
    moved = []
    rows = make_reports.read()
    for pinned in rows:
        method, d, n, alpha = pinned[:4]
        point = (int(method), int(d), int(n), make_reports.parse_alpha(alpha))
        got = make_reports.row(point)
        if pinned[5] == "true" and got != pinned:
            moved.append((pinned, got))
    assert not moved, f"{len(moved)} of {len(rows)} rows moved, first: {moved[:3]}"
