"""Artifact files: ``# key=value`` comment lines, then a body.  Values and cells go through
``str``, which for Python and numpy floats alike is the shortest repr that round-trips."""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping, Sequence

from .errors import InvalidArgument


def write_artifact(path, header: Mapping[str, object], lines: Iterable[str]) -> None:
    """Write the ``# key=value`` header, then ``lines`` as given (each ends in ``\\n``), as UTF-8."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in chain((f"# {key}={value}\n" for key, value in header.items()), lines):
            fh.write(line)


def write_table(path, header: Mapping[str, object], columns: Mapping[str, Sequence[object]]) -> None:
    """Write equal-length ``columns`` (name -> cells) as a CSV table under ``header``."""
    row = ",".join(["%s"] * len(columns)) + "\n"  # one ``str`` per cell, one format per row
    write_artifact(path, header, chain([",".join(columns) + "\n"],
                                       map(row.__mod__, zip(*columns.values(), strict=True))))


def read_table(stream: Iterable[str]) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Read a :func:`write_table` file as ``(header, columns)``, every value a string."""
    header, names, rows = {}, None, []
    for number, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].lstrip().partition("=")
            header[key] = value
        elif names is None:
            names = line.split(",")
            if len(set(names)) != len(names):
                raise InvalidArgument(f"line {number} repeats a column name: {line!r}")
        else:
            cells = line.split(",")
            if len(cells) != len(names):
                raise InvalidArgument(f"line {number} has {len(cells)} cells, the column header has {len(names)}")
            rows.append(cells)
    if names is None:
        raise InvalidArgument("table has no column header line")
    return header, {name: [row[i] for row in rows] for i, name in enumerate(names)}
