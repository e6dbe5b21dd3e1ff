"""The benchmark's traced mode must find, wrap and restore what it names.

``perfbench/tracing.py`` patches package functions by module and name and
two methods by class and name.  A rename in the package would break the
traced benchmark only when it runs; this test breaks first.
"""

import importlib.util
import sys
from pathlib import Path

import balanced_cycles.cli  # noqa: F401  (the tracer wraps functions of every module)
from balanced_cycles import groups, rng

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_state() -> dict:
    """Every attribute of every package module, and of the two counted classes."""
    state = {name: dict(vars(module)) for name, module in sys.modules.items()
             if name == "balanced_cycles" or name.startswith("balanced_cycles.")}
    for cls in (groups.FiniteGroup, rng.Xoshiro256StarStar):
        state[cls.__qualname__] = dict(vars(cls))
    return state


def test_tracer_install_wraps_every_span_and_uninstall_restores():
    tracing = load_tracing()
    before = package_state()
    originals = {name: getattr(sys.modules[f"balanced_cycles.{module}"], attr)
                 for name, (module, attr) in tracing.SPANS.items()}
    counted = [(groups.FiniteGroup, "subset_mul_elem"), (rng.Xoshiro256StarStar, "next")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, (module, attr) in tracing.SPANS.items():
            assert getattr(sys.modules[f"balanced_cycles.{module}"], attr) is not originals[name], name
        for cls, attr in counted:
            assert cls.__dict__[attr] is not before[cls.__qualname__][attr], attr
    finally:
        tracer.uninstall()
    after = package_state()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr}"
