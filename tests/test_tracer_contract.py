"""perfbench's tracer wraps `hierlab` functions by module and name, so a
name it patches must stay defined in that module even when nothing in the
program calls it there any more; otherwise a traced run fails on
`getattr`.  Installing each set of wrappers reads every patched name.  The
analyzer's counters are read from the calls `analyze` makes through those
names, so a run's counts are pinned too."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

import hierlab.cli
from conftest import CORPUS, cube_source

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def test_every_name_the_tracer_patches_exists():
    tracer_module = load_tracer()
    for install in ("install_counters", "install_spans"):
        tracer = tracer_module.Tracer()
        try:
            getattr(tracer, install)()
        finally:
            tracer.uninstall()


@pytest.mark.parametrize("eta", ["off", "on"])
def test_the_tracer_counts_the_five_cube_diamonds(tmp_path, eta):
    """The 5-cube's diamonds are counted where `analyze` enumerates them;
    every pair of paths has equal normal forms, so the kernel compares
    none.  Without eta some diamonds fail the predictor, so not every
    diamond commutes."""
    src = tmp_path / "cube5.hier"
    src.write_text(cube_source(5))
    tracer = load_tracer().Tracer()
    tracer.install_counters()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = hierlab.cli.main(["diamonds", str(src), "--emit", "json",
                                     "--eta-kernel", eta])
    finally:
        tracer.uninstall()
    assert code == (0 if eta == "on" else 1)
    assert tracer.counts["analyzer.diamonds"] == 10580
    assert tracer.counts["analyzer.paths"] == 760
    assert tracer.counts["kernel.defeq_calls"] == 0


def test_the_tracer_counts_one_enumeration_per_spanning_search():
    """Every parent order has the same edges, so the spanning search
    enumerates cube.hier's 21 diamonds once for its 24 placements."""
    tracer = load_tracer().Tracer()
    tracer.install_counters()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = hierlab.cli.main(["spanning-search", str(CORPUS / "cube.hier"),
                                     "--encoding", "nested"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["analyzer.diamonds"] == 21
    assert tracer.counts["analyzer.placements"] == 24
