"""Run one chemohapto command in this fresh process and record its cost.

usage: python3 invoke.py SRC_DIR RESULT_JSON TRACE_DIR|- [ARGV ...]

Imports chemohapto.cli from SRC_DIR and times the import (the set-up cost a
user pays per command), then times `cli.main(ARGV)` on its own.  With a
TRACE_DIR the layers are wrapped by tracer.install after the import and
spans land in TRACE_DIR.  With no ARGV only the import is timed.  The result
(times, exit code, uncaught exception, peak RSS) goes to RESULT_JSON.  The
kernel reports only the largest child's peak RSS, so peak_rss_mb is this
process's peak plus (forked children) x (largest child's peak): an upper
bound of the footprint of the process and its pool workers, which also
counts the pages a child shares with its parent.  Exits 3 if chemohapto does
not come from SRC_DIR.
"""

import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext


def main() -> int:
    src, result_path, trace_dir, argv = (sys.argv[1], sys.argv[2], sys.argv[3],
                                         sys.argv[4:])
    sys.path.insert(0, src)
    forks = []
    os.register_at_fork(after_in_parent=lambda: forks.append(1))
    t0 = time.perf_counter()
    import chemohapto.cli as cli
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"chemohapto imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if trace_dir != "-":
        import tracer as tracing
        tracer = tracing.Tracer(trace_dir)
        tracing.install(tracer)

    code, error, wall_s = 0, "", 0.0
    if argv:
        t1 = time.perf_counter()
        try:
            with tracer.span("cli.main") if tracer else nullcontext():
                code = cli.main(argv)
        except SystemExit as exc:       # argparse rejects bad command lines
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:        # the benchmark counts it as a failure
            traceback.print_exc()
            code, error = 1, f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - t1

    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s, "exit_code": code,
                   "error": error, "own_rss_mb": own_mb, "children": len(forks),
                   "child_rss_mb": child_mb,
                   "peak_rss_mb": own_mb + len(forks) * child_mb,
                   "absent": tracer.absent if tracer else []}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
