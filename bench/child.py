"""A traced run of the sixnodal command line, one fresh process.

    python3 bench/child.py TRACE_FILE ARG...

Times the import of ``sixnodal.cli`` in this fresh interpreter, installs the
timing wrappers of ``tracer.py``, runs the command line with ARG... (its
stdout and exit status are the program's own) and writes the import time and
the layer summary to TRACE_FILE as JSON.  ``worker.py`` starts it with the
checkout's ``src`` on PYTHONPATH.
"""

import json
import sys
import time

t0 = time.perf_counter()
import sixnodal.cli  # noqa: E402
import_s = time.perf_counter() - t0

import tracer  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tracer.install(tr)
    rc = sixnodal.cli.main(argv)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "trace": tr.summary()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
