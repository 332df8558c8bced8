"""The one reader behind the numeric CSV inputs: pairs, weight tables, portfolios."""

import csv
import io
import re

import numpy as np

from .errors import DomainError

# A line without quotes is skipped when it holds only whitespace and commas,
# or when its first cell starts with '#'.
_SKIP = re.compile(r"[\s,]*$|\s*#").match
# Text where numpy's reading and the csv module's part ways: quotes (a quoted
# cell may span lines, and a quoted blank or '#' cell skips its line) and
# \x1c-\x1f, which numpy strips around a number as whitespace and float()
# does not.
_CSV_ONLY = re.compile('["\x1c-\x1f]').search


def read_numeric_csv(path):
    """(header or None, 2-d array with one row per data line) of a CSV of numbers.

    Blank lines, lines of commas and lines starting with '#' are skipped.
    Only the first remaining row may be a non-numeric header; a later row
    that does not parse, or has another cell count than the first data row,
    raises DomainError naming the file and line.

    numpy parses the data rows in one call.  When it cannot (a bad row, or
    a number such as 1_0 that float() reads and numpy does not), or the text
    has quotes, the rows are read one by one by the csv module and float().
    """
    with open(path, newline="") as fh:
        text = fh.read()
    if not _CSV_ONLY(text):
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        lines = [line for line in lines if not _SKIP(line)]
        header, start = None, 0
        first = lines[0].split(",") if lines else []
        try:
            [float(c) for c in first]
        except ValueError:
            header, start = [c.strip() for c in first], 1
        if start == len(lines):
            return header, np.empty((0, 0))
        try:
            return header, np.loadtxt(lines[start:], delimiter=",", comments=None,
                                      ndmin=2)
        except ValueError:
            pass
    return _read_rows(path, io.StringIO(text, newline=""))


def _read_rows(path, fh):
    """read_numeric_csv row by row, by csv.reader and float(): the reference."""
    header, rows = None, []
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
