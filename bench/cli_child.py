"""Run one `ginicorr` command with layer spans, for the traced cli_batch run.

    python3 bench/cli_child.py SPANS.json ARGV...

Times the import of ginicorr.cli and the in-process `cli.main(argv)` call,
records spans as run.py does in process, writes them to SPANS.json and
exits with the command's own status.
"""

import sys
import time

t0 = time.perf_counter()
import ginicorr.cli  # noqa: E402  (PYTHONPATH points at the checkout's src/)

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    rec.task = "main"
    with tracing.instrument(rec):
        start = time.perf_counter()
        code = ginicorr.cli.main(argv)
        main_s = time.perf_counter() - start
    sys.stdout.flush()
    rec.dump(out, import_s=import_s, main_s=main_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
