"""Results built from numpy-integer arguments hold Python ints and serialize
exactly like those built from ints: every integer argument leaves its check
(``groups.checked_int``) as an int."""

import dataclasses
import json

import numpy as np
import pytest

from balanced_cycles import (Labelling, SearchSpaceTooLarge, augment_tuple, compute_n,
                             cyclic_group, grow_set, make_efficient_tuple, subset_of,
                             verify_all, verify_random)
from test_proof_engine import build_synthetic_tuple, scaled_extremal


def _stopped(**kwargs):
    """compute_n over Z4 stopped early: its SearchSpaceTooLarge's lower bound and witness."""
    with pytest.raises(SearchSpaceTooLarge) as caught:
        compute_n(cyclic_group(4), **kwargs)
    return {"lower_bound": caught.value.lower_bound, "witness": caught.value.witness}


def _augmented(I):
    L, tup = build_synthetic_tuple()
    return augment_tuple(L, tup, I(4), I(5))


CASES = {
    "verify_all": lambda I: verify_all(cyclic_group(I(3)), I(3), normalized=True, workers=I(1)),
    "verify_random": lambda I: verify_random(cyclic_group(I(3)), I(3), I(40), I(7),
                                             max_dp_vertices=I(24)),
    "compute_n": lambda I: compute_n(cyclic_group(I(3)), max_n=I(5), node_budget=I(1000)),
    "compute_n_out_of_budget": lambda I: _stopped(node_budget=I(200)),
    "compute_n_out_of_max_n": lambda I: _stopped(max_n=I(2)),
    "make_efficient_tuple": lambda I: make_efficient_tuple(scaled_extremal(cyclic_group(I(9)),
                                                                           I(5), 1), I(0)),
    "augment_tuple": _augmented,
    "grow_set": lambda I: grow_set(cyclic_group(I(9)), I(subset_of([0, 3, 6])), I(1)),
}


def _ints(obj):
    """Every integer inside a result: dataclass fields, dict keys and
    values, list and tuple members, and a labelling's vertex count."""
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        yield obj
    elif isinstance(obj, Labelling):
        yield obj.n
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _ints(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _ints(key)
            yield from _ints(value)
    elif isinstance(obj, (list, tuple)):
        for member in obj:
            yield from _ints(member)


def _json(result):
    """The result's JSON text, without the elapsed time that differs between runs."""
    if isinstance(result, dict):
        result = {key: value.to_json() if isinstance(value, Labelling) else value
                  for key, value in result.items()}
    elif not isinstance(result, int):
        result = result.to_json()
        result.pop("elapsed_seconds", None)
    return json.dumps(result)


def _untimed(result):
    return dataclasses.replace(result, elapsed=0.0) if hasattr(result, "elapsed") else result


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", [np.int64, np.uint16])
def test_numpy_integer_arguments_give_int_results(case, kind):
    with_ints = CASES[case](int)
    with_numpy = CASES[case](kind)
    assert _untimed(with_numpy) == _untimed(with_ints)
    found = list(_ints(with_numpy))
    assert found and all(type(x) is int for x in found)
    assert _json(with_numpy) == _json(with_ints)
