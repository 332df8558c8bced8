"""The one reader behind the numeric CSV inputs: pairs, weight tables, portfolios."""

import csv

import numpy as np

from .errors import DomainError


def read_numeric_csv(path):
    """(header or None, 2-d array with one row per data line) of a CSV of numbers.

    Blank lines and lines starting with '#' are skipped.  Only the first
    remaining row may be a non-numeric header; a later row that does not
    parse, or has another cell count than the first data row, raises
    DomainError naming the file and line.
    """
    header, rows = None, []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not "".join(row).strip() or row[0].lstrip().startswith("#"):
                continue
            try:
                values = [float(c) for c in row]
            except ValueError:
                if header is None and not rows:
                    header = [c.strip() for c in row]
                    continue
                values = None
            if values is None or (rows and len(values) != len(rows[0])):
                raise DomainError(f"{path}, line {reader.line_num}: bad data row {row!r}")
            rows.append(values)
    return header, np.array(rows, dtype=float).reshape(len(rows), -1 if rows else 0)
