"""Seeded request lists for the three workloads.

Inputs are built here in plain Python, without the package, so every
verdict the benchmark expects follows from the construction and not from
the code under test.  The seed picks labels, shift families, deleted arcs,
query vertices and campaign seeds.  It never changes the sizes in a round,
so every seed asks for about the same amount of work.

A round is one pass over a workload's request list.  The client is a
closed loop: one request at a time, the next one sent when the last
returns, and the list repeated round after round until the time budget is
spent.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("exact-check", "proof-engine", "campaign")

# The ROADMAP baseline rows, each the time of one request's main call.
BASELINE_METRICS = tuple(
    [f"baseline.find_balanced_cycle.extremal30_n{n}.s" for n in (12, 14, 16)]
    + [f"baseline.key_lemma.q{q}.s" for q in (9, 13)]
    + ["baseline.verify_all.z4_n4_normalized.s", "baseline.verify_random.z9_n10.s",
       "baseline.compute_n.z4.s", "baseline.compute_n.z2xz2.s"])


def cyclic(q: int) -> dict:
    return {"kind": "cyclic", "q": q}


def product(left: dict, right: dict) -> dict:
    return {"kind": "product", "left": left, "right": right}


F21 = {"kind": "metacyclic", "m": 7, "n": 3, "r": 2}


def extremal_labels(n: int) -> list[list[int]]:
    """Generator 1 on increasing arcs, identity on decreasing arcs."""
    return [[1 if u < v else 0 for v in range(n)] for u in range(n)]


def shifted(labels: list[list[int]], q: int, family: list[int]) -> list[list[int]]:
    """Shift a Z_q labelling: arc (u, v) becomes g_u + label - g_v.

    Every cycle keeps its value, so a cycle-free input stays cycle-free.
    """
    n = len(labels)
    return [[(family[u] + labels[u][v] - family[v]) % q if u != v else 0
             for v in range(n)] for u in range(n)]


def random_labels(rng: random.Random, order: int, n: int) -> list[list[int]]:
    return [[rng.randrange(order) if u != v else 0 for v in range(n)] for u in range(n)]


class _Inputs:
    """Writes input files into one directory and collects the requests."""

    def __init__(self, root: Path, indir: Path):
        self.root = root
        self.indir = indir
        self.requests: list[dict] = []

    def file(self, name: str, obj) -> str:
        path = self.indir / name
        path.write_text(json.dumps(obj))
        return str(path.relative_to(self.root))

    def labelling(self, name: str, spec: dict, labels, mask=None) -> str:
        obj = {"group": spec, "n": len(labels), "labels": labels}
        if mask is not None:
            obj["mask"] = mask
        return self.file(name, obj)

    def add(self, rid: str, **fields) -> None:
        self.requests.append({"id": rid, **fields})


def _exact_check(b: _Inputs, rng: random.Random) -> None:
    # Cycle-free extremal instances: the start-anchored sweep runs to the end.
    # q sets the element bitmask width: 2, 4 or 8 eight-bit chunks.  The three
    # n = 14 instances cost about the same and hold the median of the round's
    # 13 requests, so the median does not hang on one noisy request.
    for q, n in ((30, 12), (30, 14), (16, 14), (64, 14), (30, 16)):
        path = b.labelling(f"plain_q{q}_n{n}.json", cyclic(q), extremal_labels(n))
        baseline = f"baseline.find_balanced_cycle.extremal30_n{n}.s" if q == 30 else None
        b.add(f"check/plain/q{q}n{n}", kind="cli", argv=["check", path], labelling=path,
              expect={"type": "check", "cycle": None}, baseline=baseline)
    # The same family under a random shift: labels look random, verdict is known.
    for q, n in ((16, 13), (64, 13), (30, 14), (64, 14), (16, 15)):
        family = [rng.randrange(q) for _ in range(n)]
        path = b.labelling(f"shifted_q{q}_n{n}.json", cyclic(q),
                           shifted(extremal_labels(n), q, family))
        b.add(f"check/shifted/q{q}n{n}", kind="cli", argv=["check", path], labelling=path,
              expect={"type": "check", "cycle": None})
    # extremal(13, 14) with a seeded arc of its only balanced cycle deleted.
    q = 13
    k = rng.randrange(q + 1)
    u, v = (k, k + 1) if k < q else (q, 0)
    labels = extremal_labels(q + 1)
    labels[u][v] = 0
    mask = [[a != c and (a, c) != (u, v) for c in range(q + 1)] for a in range(q + 1)]
    path = b.labelling(f"arc_critical_q13_k{k}.json", cyclic(q), labels, mask)
    b.add(f"check/arc-critical/q13k{k}", kind="cli", argv=["check", path], labelling=path,
          expect={"type": "check", "cycle": None})
    # One balanced cycle, found only in the last layer of the first sweep.
    for q in (12, 13):
        path = b.labelling(f"late_q{q}.json", cyclic(q), extremal_labels(q + 1))
        b.add(f"check/late/q{q}", kind="cli", argv=["check", path], labelling=path,
              expect={"type": "check", "cycle": list(range(q + 1))})


def _proof_engine(b: _Inputs, rng: random.Random) -> None:
    for q in range(9, 14):
        path = b.labelling(f"extremal_q{q}_n{q}.json", cyclic(q), extremal_labels(q))
        baseline = f"baseline.key_lemma.q{q}.s" if q in (9, 13) else None
        b.add(f"key-lemma/extremal/q{q}", kind="cli", argv=["key-lemma", path],
              labelling=path, expect={"type": "key_lemma", "branch": "certificate"},
              baseline=baseline)
    for name, spec in (("Z9", cyclic(9)), ("Z3xZ3", product(cyclic(3), cyclic(3)))):
        path = b.labelling(f"random_{name}_n9.json", spec, random_labels(rng, 9, 9))
        b.add(f"key-lemma/random/{name}", kind="cli", argv=["key-lemma", path],
              labelling=path, expect={"type": "key_lemma", "branch": None})
    for p in (7, 11, 13):
        path = b.labelling(f"late_p{p}.json", cyclic(p), extremal_labels(p + 1))
        b.add(f"prime-find/extremal/p{p}", kind="cli", argv=["prime-find", path],
              labelling=path, expect={"type": "prime_find", "length": p + 1})
        path = b.labelling(f"random_Z{p}_n{p + 1}.json", cyclic(p),
                           random_labels(rng, p, p + 1))
        b.add(f"prime-find/random/p{p}", kind="cli", argv=["prime-find", path],
              labelling=path, expect={"type": "prime_find", "length": None})
    # reach_set first, so the retained table is checked against it and freed
    # before the next request.
    for n in (10, 12, 13, 14):
        path = b.labelling(f"reach_Z9_n{n}.json", cyclic(9), random_labels(rng, 9, n))
        x = rng.randrange(n)
        u, v = rng.sample(range(n), 2)
        b.add(f"lib/reach_set/n{n}", kind="lib", call="reach_set", labelling=path,
              x=x, expect={"type": "reach_set"})
        b.add(f"lib/reach_table/n{n}", kind="lib", call="reach_table", labelling=path,
              x=x, expect={"type": "reach_table", "pair": f"lib/reach_set/n{n}"})
        b.add(f"lib/reach_set_between/n{n}", kind="lib", call="reach_set_between",
              labelling=path, u=u, v=v, expect={"type": "reach_set_between"})


def _campaign(b: _Inputs, rng: random.Random) -> None:
    for name, spec, n, trials in (("F21", F21, 22, 100), ("Z9", cyclic(9), 10, 1000),
                                  ("Z64", cyclic(64), 8, 300), ("F21", F21, 22, 100),
                                  ("Z9", cyclic(9), 10, 500)):
        gpath = b.file(f"{name}.json", spec)
        seed = rng.getrandbits(63)
        b.add(f"verify/random/{name}n{n}/{seed}", kind="cli",
              argv=["verify", "--group", gpath, "--random", "--n", str(n),
                    "--trials", str(trials), "--seed", str(seed)],
              expect={"type": "verify", "mode": "randomized", "n": n, "trials": trials,
                      "seed": seed},
              baseline="baseline.verify_random.z9_n10.s" if trials == 1000 else None)
    gpath = b.file("Z4.json", cyclic(4))
    b.add("verify/exhaustive/Z4n4", kind="cli",
          argv=["verify", "--group", gpath, "--n", "4", "--mode", "exhaustive-normalized",
                "--workers", "1"],
          expect={"type": "verify", "mode": "exhaustive_normalized", "n": 4,
                  "trials": 4 ** 9, "seed": None},
          baseline="baseline.verify_all.z4_n4_normalized.s")
    for name, spec, value in (("Z3", cyclic(3), 4), ("Z4", cyclic(4), 5),
                              ("Z2xZ2", product(cyclic(2), cyclic(2)), 5)):
        gpath = b.file(f"cn_{name}.json", spec)
        baseline = f"baseline.compute_n.{name.lower()}.s" if name != "Z3" else None
        b.add(f"compute-n/{name}", kind="cli", argv=["compute-n", "--group", gpath],
              expect={"type": "compute_n", "n": value}, baseline=baseline)


_WORKLOAD_INPUTS = {"exact-check": _exact_check, "proof-engine": _proof_engine,
                    "campaign": _campaign}


def build(workload: str, seed: int, root: Path, indir: Path) -> list[dict]:
    """Write the inputs of one workload and return its request list."""
    indir.mkdir(parents=True, exist_ok=True)
    inputs = _Inputs(root, indir)
    _WORKLOAD_INPUTS[workload](inputs, random.Random(f"{workload}/{seed}"))
    return inputs.requests
