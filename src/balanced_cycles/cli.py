"""Command-line interface.

Subcommands
-----------
gen         emit a labelling (extremal, arc-critical, or random) as JSON
check       exact-or-heuristic balanced-cycle verdict for a labelling file
find-cycle  alias of check
enumerate   list every balanced cycle of a labelling file
key-lemma   run the dichotomy procedure, print cycle or certificate JSON
prime-find  constructive witness over a prime-order group
verify      exhaustive or randomized campaign, JSON report
compute-n   exact n(G) by vertex-extension search; search_nodes counts label trials

Exit codes: 0 success / cycle found; 1 campaign found a counterexample;
2 usage or input error; 3 exactly no balanced cycle exists; 4 heuristic
inconclusive; 5 search space too large or memory ran out.
``verify --workers N`` splits an exhaustive campaign across at most N
processes, and never more than the machine has cores.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constructions import arc_critical_instance, extremal_cyclic, random_labelling
from .errors import BadSpec, BalancedCyclesError, SearchSpaceTooLarge, TooLarge
from .groups import build_group
from .harness import compute_n, verify_all, verify_random
from .labellings import Labelling, labelling_from_json
from .proof_engine import key_lemma, prime_finder
from .reach import (EXACT_CAP, enumerate_balanced_cycles, find_balanced_cycle,
                    short_cycle_scan)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_NO_CYCLE = 3
EXIT_INCONCLUSIVE = 4
EXIT_TOO_LARGE = 5


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load(path: str, build):
    with open(path) as handle:
        try:
            return build(json.load(handle))
        except RecursionError:  # json and build_group recurse once per nesting level
            raise BadSpec(f"{path}: input nested too deeply") from None


def _load_labelling(path: str) -> Labelling:
    return _load(path, labelling_from_json)


def _load_group(path: str):
    return _load(path, build_group)


def _cmd_gen(args) -> int:
    if args.extremal:
        q, n = args.extremal
        L = extremal_cyclic(q, n)
    elif args.arc_critical:
        q, k = args.arc_critical
        L = arc_critical_instance(q, k)
    else:
        path, n, seed = args.random
        L = random_labelling(_load_group(path), int(n), int(seed))
    _emit(L.to_json())
    return EXIT_OK


def _cmd_check(args) -> int:
    L = _load_labelling(args.labelling)
    exact = L.n <= min(args.max_dp_vertices, EXACT_CAP) and not args.heuristic
    if exact:
        witness = find_balanced_cycle(L, max_vertices=args.max_dp_vertices)
        mode = "exact"
    else:
        witness = short_cycle_scan(L)
        mode = "heuristic"
    _emit({"balanced_cycle": list(witness.vertices) if witness else None, "mode": mode})
    if witness is not None:
        return EXIT_OK
    return EXIT_NO_CYCLE if mode == "exact" else EXIT_INCONCLUSIVE


def _cmd_enumerate(args) -> int:
    L = _load_labelling(args.labelling)
    cycles = enumerate_balanced_cycles(L)
    _emit({"balanced_cycles": [list(c.vertices) for c in cycles], "count": len(cycles)})
    return EXIT_OK if cycles else EXIT_NO_CYCLE


def _cmd_key_lemma(args) -> int:
    L = _load_labelling(args.labelling)
    _emit(key_lemma(L).to_json())
    return EXIT_OK


def _cmd_prime_find(args) -> int:
    L = _load_labelling(args.labelling)
    witness = prime_finder(L)
    _emit({"balanced_cycle": list(witness.vertices)})
    return EXIT_OK


def _cmd_verify(args) -> int:
    group = _load_group(args.group)
    if args.random:
        if args.n is None or args.trials is None:
            raise BalancedCyclesError("--random needs --n and --trials")
        report = verify_random(group, args.n, args.trials, args.seed,
                               max_dp_vertices=args.max_dp_vertices)
    else:
        if args.n is None:
            raise BalancedCyclesError("exhaustive verify needs --n")
        normalized = args.mode == "exhaustive-normalized"
        report = verify_all(group, args.n, normalized=normalized, workers=args.workers)
    _emit(report.to_json())
    return EXIT_COUNTEREXAMPLE if report.counterexamples else EXIT_OK


def _cmd_compute_n(args) -> int:
    group = _load_group(args.group)
    result = compute_n(group, max_n=args.max_n)
    _emit(result.to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="balanced-cycles", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labelling as JSON")
    target = gen.add_mutually_exclusive_group(required=True)
    target.add_argument("--extremal", nargs=2, type=int, metavar=("Q", "N"))
    target.add_argument("--arc-critical", nargs=2, type=int, metavar=("Q", "K"))
    target.add_argument("--random", nargs=3, metavar=("GROUP_JSON", "N", "SEED"))
    gen.set_defaults(func=_cmd_gen)

    for name in ("check", "find-cycle"):
        chk = sub.add_parser(name, help="balanced-cycle verdict for a labelling file")
        chk.add_argument("labelling")
        chk.add_argument("--heuristic", action="store_true",
                         help="short-cycle scan only, even when exact search would fit")
        chk.add_argument("--max-dp-vertices", type=int, default=EXACT_CAP)
        chk.set_defaults(func=_cmd_check)

    enum = sub.add_parser("enumerate", help="list every balanced cycle")
    enum.add_argument("labelling")
    enum.set_defaults(func=_cmd_enumerate)

    kl = sub.add_parser("key-lemma", help="dichotomy: balanced cycle or stabilizer certificate")
    kl.add_argument("labelling")
    kl.set_defaults(func=_cmd_key_lemma)

    pf = sub.add_parser("prime-find", help="constructive witness over a prime-order group")
    pf.add_argument("labelling")
    pf.set_defaults(func=_cmd_prime_find)

    ver = sub.add_parser("verify", help="exhaustive or randomized campaign")
    ver.add_argument("--group", required=True, help="group spec JSON file")
    ver.add_argument("--n", type=int)
    ver.add_argument("--mode", choices=("exhaustive", "exhaustive-normalized"),
                     default="exhaustive")
    ver.add_argument("--random", action="store_true")
    ver.add_argument("--trials", type=int)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--workers", type=int, default=1)
    ver.add_argument("--max-dp-vertices", type=int, default=EXACT_CAP)
    ver.set_defaults(func=_cmd_verify)

    cn = sub.add_parser("compute-n", help="exact n(G) with a witness below")
    cn.add_argument("--group", required=True)
    cn.add_argument("--max-n", type=int, default=None)
    cn.set_defaults(func=_cmd_compute_n)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchSpaceTooLarge as exc:
        payload = {"error": "search_space_too_large", "message": str(exc)}
        if exc.lower_bound is not None:
            payload["lower_bound"] = exc.lower_bound
        if exc.witness is not None:
            payload["witness"] = exc.witness.to_json()
        _emit(payload)
        return EXIT_TOO_LARGE
    except (TooLarge, MemoryError) as exc:
        # running out of memory is a size verdict too; exit 1 would claim a counterexample
        _emit({"error": "too_large", "message": str(exc) or "out of memory"})
        return EXIT_TOO_LARGE
    except (BalancedCyclesError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
