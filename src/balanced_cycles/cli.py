"""Command-line interface.

Subcommands
-----------
gen         emit a labelling (extremal, arc-critical, or random) as JSON
check       exact-or-heuristic balanced-cycle verdict for a labelling file
find-cycle  alias of check: the same subparser under a second name
enumerate   list every balanced cycle of a labelling file
key-lemma   run the dichotomy procedure, print cycle or certificate JSON
prime-find  constructive witness over a prime-order group
verify      exhaustive or randomized campaign, JSON report
compute-n   exact n(G) by vertex-extension search, at most --node-budget label
            trials; search_nodes counts the trials spent

Exit codes: 0 success / cycle found; 1 campaign found a counterexample;
2 usage or input error; 3 exactly no balanced cycle exists; 4 heuristic
inconclusive; 5 search space too large or memory ran out; 6 internal error
(any other exception, such as a failed re-verification; the traceback goes
to stderr).
``verify --workers N`` (N >= 1) splits an exhaustive campaign across at
most N processes, and never more than the CPUs the process may run on.
``--max-dp-vertices K`` (K >= 0; ``check``, ``verify --random``) runs the
exact search only up to K vertices, and never above the cap of 24; larger
instances get the short-cycle scan alone, so K = 0 means scan only.
``compute-n --node-budget N`` (N >= 0, default 2,000,000) bounds the
label trials over all n; past it the command exits 5 with a lower bound.
A value outside these ranges exits 2, and so does a ``verify`` flag its
mode does not read: ``--trials``, ``--seed`` and ``--max-dp-vertices``
without ``--random``, ``--mode`` and ``--workers`` with it.
The parser is built once per process, on the first ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from .constructions import arc_critical_instance, extremal_cyclic, random_labelling
from .errors import BadSpec, BalancedCyclesError, SearchSpaceTooLarge, TooLarge
from .groups import build_group
from .harness import DEFAULT_NODE_BUDGET, compute_n, verify_all, verify_random
from .labellings import labelling_from_json
from .proof_engine import key_lemma, prime_finder
from .reach import (EXACT_CAP, enumerate_balanced_cycles, find_balanced_cycle, runs_exact,
                    short_cycle_scan)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_NO_CYCLE = 3
EXIT_INCONCLUSIVE = 4
EXIT_TOO_LARGE = 5
EXIT_INTERNAL = 6


def _emit(obj) -> None:
    # json.dumps with no indent takes the C encoder; json.dump to a stream never does
    sys.stdout.write(json.dumps(obj) + "\n")


def _load(path: str, build):
    with open(path) as handle:
        try:
            return build(json.load(handle))
        except RecursionError:  # json and build_group recurse once per nesting level
            raise BadSpec(f"{path}: input nested too deeply") from None


def _cmd_gen(args) -> int:
    if args.extremal:
        q, n = args.extremal
        L = extremal_cyclic(q, n)
    elif args.arc_critical:
        q, k = args.arc_critical
        L = arc_critical_instance(q, k)
    else:
        path, n, seed = args.random
        L = random_labelling(_load(path, build_group), int(n), int(seed))
    _emit(L.to_json())
    return EXIT_OK


def _cmd_check(args) -> int:
    L = _load(args.labelling, labelling_from_json)
    if runs_exact(L.n, args.max_dp_vertices):
        witness = find_balanced_cycle(L)
        mode = "exact"
    else:
        witness = short_cycle_scan(L)
        mode = "heuristic"
    _emit({"balanced_cycle": list(witness.vertices) if witness else None, "mode": mode})
    if witness is not None:
        return EXIT_OK
    return EXIT_NO_CYCLE if mode == "exact" else EXIT_INCONCLUSIVE


def _cmd_enumerate(args) -> int:
    L = _load(args.labelling, labelling_from_json)
    cycles = enumerate_balanced_cycles(L)
    _emit({"balanced_cycles": [list(c.vertices) for c in cycles], "count": len(cycles)})
    return EXIT_OK if cycles else EXIT_NO_CYCLE


def _cmd_key_lemma(args) -> int:
    L = _load(args.labelling, labelling_from_json)
    _emit(key_lemma(L).to_json())
    return EXIT_OK


def _cmd_prime_find(args) -> int:
    L = _load(args.labelling, labelling_from_json)
    witness = prime_finder(L)
    _emit({"balanced_cycle": list(witness.vertices)})
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the flags that only one mode reads, with their defaults; the parser
    # leaves them None, so a flag given to the other mode is caught
    random_only = {"trials": None, "seed": 0, "max_dp_vertices": EXACT_CAP}
    exhaustive_only = {"mode": "exhaustive", "workers": 1}
    mode, read, unread = (("verify --random", random_only, exhaustive_only) if args.random
                          else ("exhaustive verify", exhaustive_only, random_only))
    for name in unread:
        if getattr(args, name) is not None:
            raise BalancedCyclesError(f"--{name.replace('_', '-')} does not apply to {mode}")
    for name, default in read.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    group = _load(args.group, build_group)
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
    group = _load(args.group, build_group)
    result = compute_n(group, max_n=args.max_n, node_budget=args.node_budget)
    _emit(result.to_json())
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(prog="balanced-cycles", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labelling as JSON")
    target = gen.add_mutually_exclusive_group(required=True)
    target.add_argument("--extremal", nargs=2, type=int, metavar=("Q", "N"))
    target.add_argument("--arc-critical", nargs=2, type=int, metavar=("Q", "K"))
    target.add_argument("--random", nargs=3, metavar=("GROUP_JSON", "N", "SEED"))
    gen.set_defaults(func=_cmd_gen)

    chk = sub.add_parser("check", aliases=["find-cycle"],
                         help="balanced-cycle verdict for a labelling file")
    chk.add_argument("labelling")
    chk.add_argument("--max-dp-vertices", type=int, default=EXACT_CAP,
                     help=f"exact search up to this many vertices (at most {EXACT_CAP}), "
                          "the short-cycle scan above; 0 = scan only")
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
                     help="exhaustive only (default exhaustive)")
    ver.add_argument("--random", action="store_true")
    ver.add_argument("--trials", type=int, help="--random only")
    ver.add_argument("--seed", type=int, help="--random only (default 0)")
    ver.add_argument("--workers", type=int, help="exhaustive only (default 1)")
    ver.add_argument("--max-dp-vertices", type=int,
                     help="--random only: a scan miss escalates to exact search up to this "
                          f"many vertices (default and at most {EXACT_CAP}); 0 = scan only")
    ver.set_defaults(func=_cmd_verify)

    cn = sub.add_parser("compute-n", help="exact n(G) with a witness below")
    cn.add_argument("--group", required=True)
    cn.add_argument("--max-n", type=int, default=None)
    cn.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                    help="label trials over all n (default 2,000,000, at least 0); "
                         "past it the command exits 5 with a lower bound")
    cn.set_defaults(func=_cmd_compute_n)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
    except (BalancedCyclesError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a crash must not exit 1, which would claim a counterexample
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
