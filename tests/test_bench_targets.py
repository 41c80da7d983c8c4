"""The traced benchmark run wraps sixnodal functions by name; a rename in the
package must fail here rather than only in `bench/run.py --trace 1`."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, modname, path in tracer.TARGETS:
        # the lookup tracer.install makes, without installing a wrapper
        owner = importlib.import_module(f"sixnodal.{modname}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), name
        assert callable(vars(owner)[attr]), name
