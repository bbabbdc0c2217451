"""perfbench's tracer wraps `hierlab` functions by module and name, so a
name it patches must stay defined in that module even when nothing in the
program calls it there any more; otherwise a traced run fails on
`getattr`.  Installing each set of wrappers reads every patched name.  The
counters are read from the calls the program makes through those names, so
a run's counts are pinned too, for every subcommand: a call that no longer
goes through a patched name reads 0."""

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


def run_traced(*argv: str):
    """The exit code and the tracer's counts of one `hier` run."""
    tracer = load_tracer().Tracer()
    tracer.install_counters()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = hierlab.cli.main(list(argv))
    finally:
        tracer.uninstall()
    return code, tracer.counts


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
    code, counts = run_traced("diamonds", str(src), "--emit", "json", "--eta-kernel", eta)
    assert code == (0 if eta == "on" else 1)
    assert counts["analyzer.diamonds"] == 10580
    assert counts["analyzer.paths"] == 760
    assert counts["kernel.defeq_calls"] == 0


def test_the_tracer_counts_one_enumeration_per_spanning_search():
    """Every parent order has the same edges, so the spanning search
    enumerates cube.hier's 21 diamonds once for its 24 placements."""
    code, counts = run_traced("spanning-search", str(CORPUS / "cube.hier"),
                              "--encoding", "nested")
    assert code == 0
    assert counts["analyzer.diamonds"] == 21
    assert counts["analyzer.placements"] == 24


def test_the_tracer_counts_the_goals_resolve_searches():
    """module.hier's goals, one of them not found, plus the three goals the
    elaborator resolves to complete under-applied instance targets: every
    goal node and candidate is read from the trace of a patched
    `resolve`."""
    code, counts = run_traced("resolve", str(CORPUS / "module.hier"))
    assert code == 1
    assert counts["resolution.goal_nodes"] == 10
    assert counts["resolution.candidates_tried"] == 15
    assert counts["resolution.trace_lines"] == 35


def test_the_tracer_counts_the_elaborators_own_resolutions():
    """The elaborator imports `resolve` when it is called, so its three
    goals go through the patched name in `resolution`."""
    code, counts = run_traced("elaborate", str(CORPUS / "module.hier"))
    assert code == 0
    assert counts["elaborator.calls"] == 1
    assert counts["resolution.goal_nodes"] == 3


def test_the_tracer_counts_the_kernel_steps_of_a_stored_defeq():
    """fig1's one stored defeq, checked with kernel eta: the tracer passes
    `defeq` a trace that counts its reduction steps by rule."""
    code, counts = run_traced("defeq", str(CORPUS / "fig1.hier"))
    assert code == 0
    assert counts["kernel.defeq_calls"] == 1
    assert [counts[f"kernel.{rule}"] for rule in ("delta", "beta", "iota", "eta")] == \
        [7, 7, 2, 1]
