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
