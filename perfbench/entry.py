"""One cold ``qhopf`` invocation, as the installed console script runs it
(``from qhopf.cli import main; sys.exit(main())``).

Usage: ``python3 perfbench/entry.py <qhopf arguments>`` with ``src`` on
``PYTHONPATH``.  When the process ends it writes a small JSON record to the
file named by ``PERFBENCH_CHILD_OUT``: its peak resident memory (VmHWM, which
unlike ``ru_maxrss`` does not inherit the parent's peak across fork and
exec), the import time of ``qhopf.cli`` and, with ``PERFBENCH_TRACE=1``, the
per-layer aggregates of the traced call.
"""

import os
import sys
import time


def _vmhwm_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _run():
    t0 = time.perf_counter()
    import qhopf.cli as cli
    import_s = time.perf_counter() - t0
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.begin_op()
    info = {"import_s": import_s}
    try:
        return cli.main(sys.argv[1:])
    finally:
        info["vmhwm_kb"] = _vmhwm_kb()
        if tracer is not None:
            info["agg"] = tracer.end_op(keep_spans=os.environ.get("PERFBENCH_SPANS") == "1")
        import json  # already loaded by qhopf.cli; kept out of the timed import
        with open(os.environ["PERFBENCH_CHILD_OUT"], "w", encoding="utf-8") as fh:
            json.dump(info, fh)


if __name__ == "__main__":
    sys.exit(_run())
