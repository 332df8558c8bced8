"""Byte-identical CLI output, pinned against stored files.

Each command below prints only closed forms that are plain IEEE arithmetic
and square roots (no quadrature, no libm exp or lgamma), so the stored
stdout does not depend on the CPU or the maths library.  The set covers the
README `curves` command and `corr --method closed` for the normal,
elliptical-t, BVP1 and BVP2 families at non-unit locations and scales with
identity and power weights.  The `# version=` line is left out of the
comparison, since a release changes it.

To regenerate the stored file after a change that is meant to move these
outputs, run `python tests/test_golden.py` with the package on PYTHONPATH,
and say in CHANGES.md which outputs moved and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ginicorr.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_closed_forms.json"

FAMILIES = [
    ["normal", "--mu-x", "1.5", "--mu-y", "-2", "--sigma-x", "2.5", "--sigma-y", "0.3",
     "--rho", "-0.62"],
    ["elliptical_t", "--mu-x", "-1", "--mu-y", "3", "--sigma-x", "1.7", "--sigma-y", "0.45",
     "--sigma-xy", "0.5", "--nu", "2.5"],
    ["bvp1", "--mu-x", "2", "--mu-y", "-1", "--sigma-x", "3", "--sigma-y", "0.5",
     "--delta", "5.87"],
    ["bvp1", "--sigma-x", "0.2", "--sigma-y", "7", "--delta", "1.37"],
    ["bvp2", "--mu-x", "-1", "--mu-y", "4", "--sigma-x", "2", "--sigma-y", "1.5",
     "--delta", "2.1", "--delta-y", "0.5254"],
    ["bvp2", "--sigma-x", "0.4", "--sigma-y", "7", "--delta", "1.23", "--delta-y", "3.7"],
]

COMMANDS = [
    ["curves", "--delta-min", "2.05", "--delta-max", "10", "--steps", "80",
     "--delta-y", "0.5254"],
    *(["corr", "--family", *fam, "--weight", w, "--method", "closed"]
      for fam in FAMILIES for w in ("identity", "power:0.37", "power:2.5")),
]


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return buf.getvalue()


def _without_version(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# version="))


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_stdout_matches_stored(argv):
    stored = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert _without_version(_stdout(argv)) == _without_version(stored)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({" ".join(argv): _stdout(argv) for argv in COMMANDS},
                                 indent=1) + "\n")
    sys.exit(0)
