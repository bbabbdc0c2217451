"""perfbench's tracer wraps `hierlab` functions by module and name, so a
name it patches must stay defined in that module even when nothing in the
program calls it there any more; otherwise a traced run fails on
`getattr`.  Installing each set of wrappers reads every patched name."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_name_the_tracer_patches_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    for install in ("install_counters", "install_spans"):
        tracer = tracer_module.Tracer()
        try:
            getattr(tracer, install)()
        finally:
            tracer.uninstall()
