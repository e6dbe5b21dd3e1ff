"""cli.main on fuzzed labelling files: every outcome is a documented exit code.

Exit 1 means "the campaign found a counterexample" and an escaping
exception is a crash; a labelling file must never produce either, whatever
it holds.  Inputs are labelling objects over small groups, valid or with
one field fuzzed (floats, bools, strings, huge or negative integers,
ragged matrices, broken group specs, a missing key), and bare JSON values.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from balanced_cycles.cli import main

ALLOWED_EXITS = {0, 2, 3, 4, 5}
COMMANDS = ("check", "enumerate", "key-lemma", "prime-find")

scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 8), st.integers(),
                    st.floats(allow_nan=False), st.text(max_size=3))
GROUPS = [({"kind": "cyclic", "q": q}, q) for q in (1, 2, 3, 5)] + [
    ({"kind": "product", "left": {"kind": "cyclic", "q": 2},
      "right": {"kind": "cyclic", "q": 2}}, 4),
    ({"kind": "metacyclic", "m": 3, "n": 2, "r": 2}, 6),
    ({"kind": "table", "mul": [[0, 1], [1, 0]]}, 2)]
broken_groups = st.one_of(
    scalars,
    st.fixed_dictionaries({"kind": st.sampled_from(["cyclic", "product", "metacyclic",
                                                    "table", "nope"])},
                          optional={"q": scalars, "m": scalars, "n": scalars, "r": scalars,
                                    "left": scalars, "right": scalars,
                                    "mul": st.lists(st.lists(scalars, max_size=3),
                                                    max_size=3)}))
ragged = st.one_of(scalars, st.lists(st.one_of(scalars, st.lists(scalars, max_size=5)),
                                     max_size=5))
FAULTS = (None,) * 6 + ("label", "n", "mask", "group", "labels", "drop")


@st.composite
def labelling_objects(draw):
    """A valid labelling object over a small group, with at most one fault injected."""
    spec, order = draw(st.sampled_from(GROUPS))
    n = draw(st.integers(1, 5))
    labels = [[draw(st.integers(0, order - 1)) if u != v else 0 for v in range(n)]
              for u in range(n)]
    obj = {"group": spec, "n": n, "labels": labels}
    if draw(st.integers(0, 2)) == 0:
        obj["mask"] = [[draw(st.booleans()) for _ in range(n)] for _ in range(n)]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "label":
        labels[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(scalars)
    elif fault == "n":
        obj["n"] = draw(scalars)
    elif fault == "mask":
        obj["mask"] = draw(ragged)
    elif fault == "group":
        obj["group"] = draw(broken_groups)
    elif fault == "labels":
        obj["labels"] = draw(ragged)
    elif fault == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    return obj


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(labelling_objects(), labelling_objects(), labelling_objects(), ragged),
       st.sampled_from(COMMANDS))
def test_fuzzed_labelling_files_exit_with_documented_codes(obj, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "labelling.json")
        with open(path, "w") as handle:
            json.dump(obj, handle)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, path])
    assert code in ALLOWED_EXITS
