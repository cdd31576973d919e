"""Run one ``proctag`` command line in this process and write how it went.

Usage: python3 child.py --result FILE [--trace] -- <proctag arguments>

The process exits with the command's code. The result file gets the code
and the wall time of the command itself
(``wall_s``, interpreter start-up excluded); with ``--trace`` also the span
summary of ``tracing.summarize``. The parent process reads peak memory
from the operating system when it reaps this process.
"""

import argparse
import json
import sys
import time


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from proctag import cli

    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.install()
    start = time.perf_counter()
    code = cli.run(argv)
    result = {"code": code, "wall_s": time.perf_counter() - start}
    if recorder is not None:
        result["trace"] = tracing.summarize(recorder.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
