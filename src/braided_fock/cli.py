"""Command-line front end.

Subcommands: ``check`` (hecke, ybe, pybe, unitarity, moderel, modeind),
``nf`` (normal forms), ``heisenberg``, ``lemma33`` and ``dims``.
Each handler returns ``(passed, report, lines)``; only ``main`` prints a
report, as JSON or as text lines, or maps a result or an exception to an exit
code: 0 pass, 1 mathematical failure, 2 usage or parse error, 3 rewrite
budget exceeded.
``nf`` and ``heisenberg`` take the rewrite budget from ``--budget``; without
it, and for every other command, the environment variable
BRAIDED_FOCK_BUDGET overrides the default.
Each handler imports the layers it uses, so ``--help`` and usage errors load
none, and ``check hecke``, ``ybe``, ``pybe``, ``unitarity`` and ``dims`` never
load ``modealg`` or ``fock``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_TOKEN = re.compile(r"^t\[(-?\d+)\]_(\d+)$|^t(\d+)$")


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(message)
        self.position = position


def parse_word(text: str):
    """Parse 't[2]_1 t[0]_2' or the single-mode shorthand 't2 t1'."""
    word = []
    pos = 0
    for token in text.split():
        start = text.index(token, pos)
        m = _TOKEN.match(token)
        if not m:
            raise ParseError("cannot parse token %r" % token, start)
        if m.group(3) is not None:
            word.append((0, int(m.group(3))))
        else:
            word.append((int(m.group(1)), int(m.group(2))))
        pos = start + len(token)
    return tuple(word)


def _load_hecke(args):
    """The ``HeckeData`` of ``--matrix``, else of the standard R at ``--n``.

    An explicit ``--n`` must agree with the n of the ``--matrix`` file.
    """
    from .rmatrix import HeckeData, standard_sln_R
    from .tensor import TensorOp

    if args.matrix:
        with open(args.matrix) as fh:
            obj = json.load(fh)
        op = TensorOp.from_json(obj)
        if args.n is not None and args.n != op.n:
            raise ValueError("--n %d differs from n=%d in %s" % (args.n, op.n, args.matrix))
        return HeckeData(n=op.n, R=op)
    return standard_sln_R(args.n)


# the check kinds that read each of these options; the others reject it
_CHECK_READS = {"seed": ("unitarity",), "rules": ("moderel", "modeind"),
                "i": ("moderel", "modeind"), "j": ("moderel", "modeind")}


def cmd_check(args):
    kind = args.kind
    for opt, kinds in _CHECK_READS.items():
        if getattr(args, opt) is not None and kind not in kinds:
            raise ValueError("check %s does not read --%s" % (kind, opt))
    data = _load_hecke(args)
    from .rmatrix import admissible_samples, check_braid, check_hecke, check_pybe, check_unitarity

    if kind in ("moderel", "modeind"):
        if args.i is None or args.j is None:
            raise ValueError("check %s needs --i and --j" % kind)
        from .modealg import ExchangeRules, check_modeind, check_moderel

        # both checks invert PR through the quadratic relation, which holds
        # only for a Hecke R: any other R fails here, with the Hecke witness
        hecke = check_hecke(data)
        ok = hecke.passed
        if ok:
            check = check_moderel if kind == "moderel" else check_modeind
            ok = check(args.i, args.j, data.n, ExchangeRules(data, args.rules or "theorem21"))
        report = {"check": kind, "n": data.n, "i": args.i, "j": args.j, "pass": ok,
                  "witness": hecke.witness, "degrees": {}}
        lines = ["%s i=%d j=%d n=%d: %s" % (kind, args.i, args.j, data.n,
                                             "pass" if ok else "FAIL")]
        if not hecke.passed:
            lines.append("R fails check hecke, witness: %s" % (hecke.witness,))
        return ok, report, lines
    if kind == "unitarity":
        res = check_unitarity(data, admissible_samples(5, args.seed or 0))
    else:
        res = {"hecke": check_hecke, "ybe": check_braid, "pybe": check_pybe}[kind](data)
    lines = ["%s n=%d: %s" % (res.check, res.n, "pass" if res.passed else "FAIL")]
    if not res.passed and res.witness:
        lines.append("witness: %s" % (res.witness,))
    return res.passed, res.to_json(), lines


def cmd_nf(args):
    from .modealg import ModeElement, normal_form, standard_rules

    word = parse_word(args.expr)
    variant = args.rules or "theorem21"
    elem = ModeElement.from_word(args.n, word)
    out = normal_form(elem, standard_rules(args.n, variant), budget=args.budget)
    report = {"command": "nf", "n": args.n, "rules": variant, "input": args.expr,
              "normal_form": out.to_json()}
    return True, report, [repr(out)]


def cmd_heisenberg(args):
    from . import fock

    i, j, n = args.i, args.j, args.n
    log = [] if args.log_pruned else None
    scalar, state = fock.commutator_on_vacuum(i, j, n, budget=args.budget, log_pruned=log)
    extrapolation = i >= 3 or j >= 3
    if scalar is None:
        report = {"check": "heisenberg", "i": i, "j": j, "n": n, "pass": False,
                  "engine": None, "state": state.to_json(), "extrapolation": extrapolation}
        # the witness is the state's first term in configuration order
        cfg = min(state.terms)
        return False, report, ["[b_%d, b_-%d] on the vacuum is not scalar: FAIL; first term: "
                               "columns %s, coefficient %s" % (
                                   i, j, {m: list(ix) for m, ix in cfg}, state.terms[cfg])]
    cleared_lhs, cleared_rhs = fock.heisenberg_sides(scalar, i, j, n)
    ok = cleared_lhs == cleared_rhs
    report = {
        "check": "heisenberg", "i": i, "j": j, "n": n, "pass": ok,
        "engine": scalar.to_json(),
        "cleared_lhs": cleared_lhs.to_json(),
        "cleared_rhs": cleared_rhs.to_json(),
        "extrapolation": extrapolation,
    }
    if log is not None:
        report["pruned"] = log
    lines = [
        "[b_%d, b_-%d] omega = (%s) omega   n=%d%s" % (
            i, j, scalar, n, "   [extrapolation]" if extrapolation else ""),
        "cleared: (%s) * (1 - q^-%d) = %s: %s" % (
            scalar, 2 * i, cleared_rhs, "pass" if ok else "FAIL"),
    ]
    if log is not None:
        lines.append("pruned %d slot terms" % len(log))
    return ok, report, lines


def cmd_lemma33(args):
    from . import fock

    n = args.n
    engine, second = fock.column_piece(n, 0), fock.column_piece(n, 1)
    closed = fock.lemma33_closed_form(n)
    second_expected = fock.lemma33_second_term_expected(n)
    ok = engine == closed and second == second_expected
    report = {
        "check": "lemma33", "n": n, "pass": ok,
        "engine": engine.to_json(), "closed_form": closed.to_json(),
        "second_term": second.to_json(), "second_term_expected": second_expected.to_json(),
    }
    return ok, report, [
        "column-0 piece: %s" % engine,
        "closed form:    %s" % closed,
        "column-1 piece: %s (expected %s)" % (second, second_expected),
        "lemma33 n=%d: %s" % (n, "pass" if ok else "FAIL"),
    ]


def cmd_dims(args):
    from math import comb

    from .wedge import degree_rank, derive_wedge_rules

    data = _load_hecke(args)
    table = derive_wedge_rules(data)

    rows = []
    ok = True
    for m in range(data.n + 1):
        rank = degree_rank(data.n, m, table)
        expected = comb(data.n, m)
        ok = ok and rank == expected
        rows.append({"degree": m, "rank": rank, "binomial": expected})
    report = {"check": "dims", "n": data.n, "pass": ok, "rows": rows}
    lines = ["degree %d: rank %d, C(%d, %d) = %d" % (r["degree"], r["rank"], data.n,
                                                     r["degree"], r["binomial"]) for r in rows]
    lines.append("dims n=%d: %s" % (data.n, "pass" if ok else "FAIL"))
    return ok, report, lines


# ``modealg.VARIANTS``, spelled here so that building the parser loads no layer
# (tests/test_cli.py checks that the two agree)
_VARIANTS = ("theorem21", "gerv")

# every option, in the order a subcommand's usage line lists them
_OPTIONS = {
    "--matrix": dict(help="JSON operator file with a user-supplied R"),
    "--i": dict(type=int, default=None),
    "--j": dict(type=int, default=None),
    "--log-pruned": dict(action="store_true"),
    "--n": dict(type=int, default=None),
    "--output": dict(choices=("text", "json"), default="text"),
    "--seed": dict(type=int, default=None),
    "--budget": dict(type=int, default=None),
    "--rules": dict(choices=_VARIANTS, default=None),
}

# (name, help, handler, positionals, the options it reads besides --output)
_COMMANDS = (
    ("check", "run one identity check", cmd_check,
     [("kind", dict(choices=("hecke", "ybe", "pybe", "unitarity", "moderel", "modeind")))],
     ("--matrix", "--i", "--j", "--n", "--seed", "--rules")),
    ("nf", "normal form of a word", cmd_nf, [("expr", {})], ("--n", "--budget", "--rules")),
    ("heisenberg", "commutator [b_i, b_-j] on the vacuum", cmd_heisenberg,
     [("i", dict(type=int)), ("j", dict(type=int))], ("--log-pruned", "--n", "--budget")),
    ("lemma33", "column pieces of [b_2, b_-2] against closed forms", cmd_lemma33, [], ("--n",)),
    ("dims", "wedge dimensions against binomials", cmd_dims, [], ("--matrix", "--n")),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="braided-fock",
                                 description="exact checks for Hecke R-matrix exchange algebras")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, fn, positionals, reads in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg, kw in positionals:
            p.add_argument(arg, **kw)
        for flag, kw in _OPTIONS.items():
            if flag in reads or flag == "--output":
                p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # --n is 2 unless given; with --matrix the file's n stands in for it
    if args.n is None and not getattr(args, "matrix", None):
        args.n = 2
    try:
        passed, report, lines = args.fn(args)
    except ParseError as exc:
        print("parse error at position %d: %s" % (exc.position, exc), file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        from .modealg import BudgetExceededError  # loaded already if it raised one

        if not isinstance(exc, BudgetExceededError):
            raise
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    print(json.dumps(report, sort_keys=True) if args.output == "json" else "\n".join(lines))
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
