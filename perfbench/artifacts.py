"""Cell-by-cell checker for the CLI's artifacts.

Every numeric cell is parsed with ``float()`` (or ``int()``) and compared
bit for bit with the value a library recompute produced.  A cell that
``float()`` cannot parse -- such as ``np.float64(1.5e-11)`` -- counts as
unparsable, so a writer that leaks numpy scalar reprs fails the check
instead of being read leniently.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

#: Splits ``key = value`` and ``tdev m=1 tau_s=... value_s=...`` lines into cells.
_TEXT_CELLS = re.compile(r"\s*=\s*|\s+")
_BLOCK_ROWS = 1 << 16


@dataclass
class Report:
    """Outcome of checking one or more artifacts."""

    cells: int = 0
    unparsable: int = 0
    mismatched: int = 0
    bytes: int = 0
    rows: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.cells > 0 and not (self.unparsable or self.mismatched or self.problems)

    def add(self, other: "Report") -> "Report":
        self.cells += other.cells
        self.unparsable += other.unparsable
        self.mismatched += other.mismatched
        self.bytes += other.bytes
        self.rows += other.rows
        self.problems += other.problems
        return self


def _header(lines: Iterator[str], header: Sequence[tuple[str, object]], report: Report, name: str) -> str:
    """Check the leading ``# key=value`` lines; return the first line after them."""
    comments = []
    line = next(lines, "")
    while line.startswith("#"):
        comments.append(line[1:].strip().split("=", 1))
        line = next(lines, "")
    if [c[0] for c in comments] != [key for key, _ in header]:
        report.problems.append(f"{name}: header keys {[c[0] for c in comments]}")
    else:
        for (_, expected), (_, cell) in zip(header, comments):
            _compare([cell], [expected], report)
    return line


def _float_or_none(cell: str):
    # Cells such as np.float64(...) start with 'n' but are no spelling of
    # NaN; rejecting them without the exception keeps a column of 2**20
    # unparsable cells cheap to count.
    if cell[:1] in ("n", "N") and cell[1:2] not in ("a", "A"):
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _int_or_none(cell: str):
    try:
        return int(cell)
    except ValueError:
        return None


def _compare(cells: Sequence[str], expected: Sequence, report: Report) -> None:
    """Compare one column of cells with the expected values of one type."""
    report.cells += len(cells)
    if len(cells) != len(expected):
        report.problems.append(f"{len(cells)} cells where {len(expected)} were expected")
        return
    first = expected[0] if len(expected) else None
    if isinstance(first, str):
        report.mismatched += sum(c != e for c, e in zip(cells, expected))
        return
    is_int = isinstance(first, (int, np.integer))
    try:
        got = list(map(int if is_int else float, cells))
    except ValueError:
        got = list(map(_int_or_none if is_int else _float_or_none, cells))
    parsed = np.array([g is not None for g in got]) if None in got else np.ones(len(got), dtype=bool)
    report.unparsable += int((~parsed).sum())
    got = [0 if g is None else g for g in got]
    if is_int:
        differs = np.asarray(got, dtype=np.int64) != np.asarray(expected, dtype=np.int64)
    else:
        differs = (np.asarray(got, dtype=np.float64).view(np.uint64)
                   != np.asarray(expected, dtype=np.float64).view(np.uint64))
    report.mismatched += int((differs & parsed).sum())


def check_csv(path: Path, header: Sequence[tuple[str, object]], columns: Sequence[str],
              expected: Sequence[Sequence]) -> Report:
    """Check a ``# header`` + CSV table artifact column by column.

    The table is read in blocks of rows so that checking a 2**20-row
    artifact adds little to the peak memory of the process.
    """
    report = Report(bytes=path.stat().st_size)
    width, done = len(columns), 0
    with open(path, encoding="utf-8", newline="") as fh:
        lines = iter(fh)
        column_line = _header(lines, header, report, path.name)
        if column_line != ",".join(columns) + "\n":
            report.problems.append(f"{path.name}: column header {column_line!r}")
            return report
        report.rows += 1
        while block := list(itertools.islice(lines, _BLOCK_ROWS)):
            # One split per block; a row with a wrong cell count shifts the
            # cells after it, which then fail the comparison.
            cells = "".join(block).replace("\n", ",").split(",")
            if len(cells) - 1 != width * len(block) or cells[-1]:
                report.problems.append(f"{path.name}: rows near {done} are not {width} cells per line")
                return report
            for j, want in enumerate(expected):
                _compare(cells[j:-1:width], want[done:done + len(block)], report)
            done += len(block)
            report.rows += len(block)
    if done != len(expected[0]):
        report.problems.append(f"{path.name}: {done} rows where {len(expected[0])} were expected")
    return report


def check_text(path: Path, header: Sequence[tuple[str, object]],
               expected_lines: Sequence[Sequence[object]]) -> Report:
    """Check a ``# header`` + ``key = value`` text artifact line by line."""
    report = Report(bytes=path.stat().st_size)
    lines = iter(path.read_text(encoding="utf-8").splitlines(keepends=True))
    first = _header(lines, header, report, path.name)
    body = ([first] if first else []) + list(lines)
    report.rows += len(body)
    if len(body) != len(expected_lines):
        report.problems.append(f"{path.name}: {len(body)} lines where {len(expected_lines)} were expected")
        return report
    for line, want in zip(body, expected_lines):
        got = text_cells(line)
        if len(got) != len(want):
            report.problems.append(f"{path.name}: line {line!r}")
            continue
        for cell, value in zip(got, want):
            _compare([cell], [value], report)
    return report


def text_cells(line: str) -> list[str]:
    """The cells a text line splits into (for expected lines given as text)."""
    return _TEXT_CELLS.split(line.strip())
