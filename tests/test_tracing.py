"""The benchmark's per-layer tracer must still find every library name it
wraps, and put each one back."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_uninstall_restores_every_attribute():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
    finally:
        tracer.uninstall()
    assert saved
    first = {}
    for owner, name, original in saved:
        first.setdefault((id(owner), name), (owner, name, original))
    for owner, name, original in first.values():
        assert getattr(owner, name) is original, f"{owner!r}.{name} not restored"


def test_tracer_sees_the_interval_path():
    # floor(pi n^2) at n = 10 is decided from an enclosure: the tracer must
    # time its interval products and the floor read off them
    from nilseq import genpoly

    expr = genpoly.parse_gp("(floor (* pi n n))")
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert genpoly.eval_gp(expr, 10).integer_value == 314
        stats, counts = tracer.take()
    finally:
        tracer.uninstall()
    assert stats["exactreal.interval"][0] == 2
    assert stats["exactreal.interval.floor"][0] == 1
    assert counts["eval.enclosure_decided"] == 1
