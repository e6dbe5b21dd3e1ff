"""The benchmark's traced mode must find, wrap and restore what it names,
and summarize what the wrapped package does.

``perfbench/tracing.py`` patches package functions by module and name and
two methods by class and name, and reads what the traced calls return.  A
rename in the package, or a change to what a traced call returns, would
break the traced benchmark only when it runs; these tests break first.
"""

import importlib.util
import sys
from math import comb
from pathlib import Path

import balanced_cycles
import balanced_cycles.cli  # noqa: F401  (the tracer wraps functions of every module)
from balanced_cycles import cyclic_group, extremal_cyclic, groups, random_labelling, rng

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


def test_traced_calls_run_and_summarize():
    tracing = load_tracing()
    bc = balanced_cycles  # read through the package after install, as the wrappers sit there
    m = 5
    complete = random_labelling(cyclic_group(5), m, 7)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bc.reach_set(complete, range(m), 0)
        alone = tracing.summarize(list(tracer.spans), dict(tracer.counts), {None: 1.0}, {})
        table = bc.start_anchored_table(complete, range(m)).table
        bc.reach_table(complete, range(m))
        bc.enumerate_balanced_cycles(complete)
        bc.key_lemma(extremal_cyclic(3, 3))
        bc.find_balanced_cycle(extremal_cyclic(4, 5))
        report = bc.verify_all(cyclic_group(2), 3)
        result = bc.compute_n(cyclic_group(2))
    finally:
        tracer.uninstall()
    # every aggregated layer of a complete m-vertex scope holds k endpoints per k-subset
    for k in range(1, m + 1):
        assert alone[f"reach.layer.{k}.states"] == k * comb(m, k), k
    assert alone["reach.dp_states.measured"] == sum(k * comb(m, k) for k in range(1, m + 1))
    out = tracing.summarize(tracer.spans, tracer.counts, {None: 1.0}, {})
    for name in ("reach.reach_set", "reach.reach_table", "reach.start_anchored_table",
                 "reach.enumerate_balanced_cycles", "proof_engine.key_lemma",
                 "reach.find_balanced_cycle", "harness.verify_all", "harness.compute_n"):
        assert out[f"{name}.calls"] >= 1, name
    anchored = [extra for name, _, _, parent, _, extra in tracer.spans
                if name == "reach.start_anchored_table" and parent < 0]
    assert anchored == [{"states": sum(len(entry) for entry in table.values())}]
    assert anchored[0]["states"] > m
    assert out["harness.verify_all.labellings"] == report.trials
    assert out["harness.compute_n.nodes"] == result.nodes
    assert out["reach.dp_states.computed"] > 0
