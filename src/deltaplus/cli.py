"""Command-line front end.

Subcommands: ``tau`` (apply the triangle operation to two .ddf files),
``classify`` (decide whether a pair is lawful), ``check`` (one law, many
random cases), ``mine`` (all laws, structured search first), ``catalog``
(list operations with metadata).

Exit codes are a total function of the outcome so pipelines can branch:
  0  success / Triangle / law passed
  1  NotTriangle
  2  law failed (a witness was printed)
  3  mining inconclusive
  64 usage, lookup or input errors

All output is deterministic given the flags, including --seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn

from .classify import Classification, classify
from .ddf import DDF, DdfParseError, merged_probe_points, parse_ddf, serialize
from .lawcheck import (
    LAWS,
    LawReport,
    RandomDDFConfig,
    check_law,
    mine_counterexample,
    serialize_report,
)
from .rationals import RationalParseError, format_ext, format_unit, parse_ext
from .tau import tau, tau_raw_at
from .tconorms import TCONORM_FORMS, TConormDesc, catalog_tconorm, catalog_tconorm_spec
from .tnorms import TNORM_NAMES, TNormDesc, catalog_tnorm

EXIT_OK = 0
EXIT_NOT_TRIANGLE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # keep 2 free for law failures
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="deltaplus", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tnorm", required=True, help=f"one of {', '.join(TNORM_NAMES)}")
        p.add_argument("--conorm", required=True, help=f"one of {', '.join(TCONORM_FORMS)}")

    def add_run(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-jumps", type=int, default=4)
        p.add_argument("--output", choices=("text", "records"), default="text")

    p_tau = sub.add_parser("tau", help="apply the triangle operation to two .ddf files")
    add_pair(p_tau)
    p_tau.add_argument("--f", required=True, metavar="FILE")
    p_tau.add_argument("--g", required=True, metavar="FILE")
    p_tau.add_argument("--at", metavar="X", help="evaluate at one abscissa instead")
    p_tau.add_argument(
        "--emit-points",
        action="store_true",
        help="also print (x, value) samples over the result's breakpoint set",
    )

    p_cls = sub.add_parser("classify", help="decide whether the pair is lawful")
    add_pair(p_cls)
    p_cls.add_argument("--budget", type=int, default=1000)
    p_cls.add_argument("--seed", type=int, default=0)

    p_chk = sub.add_parser("check", help="run one law for many random cases")
    add_pair(p_chk)
    p_chk.add_argument("--law", required=True, help=f"one of {', '.join(LAWS)}")
    add_run(p_chk)

    p_mine = sub.add_parser("mine", help="search all laws for a counterexample")
    add_pair(p_mine)
    add_run(p_mine)

    sub.add_parser("catalog", help="list cataloged operations and their metadata")
    return parser


def _load_pair(args) -> tuple[TNormDesc, TConormDesc]:
    return catalog_tnorm(args.tnorm), catalog_tconorm_spec(args.conorm)


def _read_ddf(path: str) -> DDF:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(f"cannot read {path}: not UTF-8 text") from exc
    try:
        f = parse_ddf(text)
    except DdfParseError as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    if not isinstance(f, DDF):
        raise CliInputError(
            f"{path}: tau takes step functions (DDF v1); this file holds ramps (DDF v2)"
        )
    return f


class CliInputError(Exception):
    pass


def _cmd_tau(args) -> int:
    t, l = _load_pair(args)
    f = _read_ddf(args.f)
    g = _read_ddf(args.g)
    if args.at is not None:
        try:
            x = parse_ext(args.at)
        except RationalParseError as exc:
            raise CliInputError(str(exc)) from exc
        reg, raw = tau(t, l, f, g).value_at(x), tau_raw_at(t, l, f, g, x)
        print(f"regularized {format_unit(reg)}  raw {format_unit(raw)}")
        return EXIT_OK
    h = tau(t, l, f, g)
    sys.stdout.write(serialize(h))
    if args.emit_points:
        for x in merged_probe_points(h):
            print(f"point {format_ext(x)} {format_unit(h.value_at(x))}")
    return EXIT_OK


def _print_classification(result: Classification) -> None:
    print(f"verdict {result.verdict}")
    for item in result.evidence:
        status = "satisfied" if item.satisfied else "failed"
        line = f"condition {item.tag} {status} source={item.source}"
        if item.verdict is not None and item.verdict.witness is not None:
            line += f" witness={item.verdict.witness}"
        if item.note:
            line += f" note={item.note!r}"
        print(line)


def _cmd_classify(args) -> int:
    t, l = _load_pair(args)
    result = classify(t, l, budget=args.budget, seed=args.seed)
    print(
        f"pair tnorm={args.tnorm} tconorm={args.conorm}"
        f" budget={args.budget} seed={args.seed}"
    )
    _print_classification(result)
    return EXIT_OK if result.verdict == "Triangle" else EXIT_NOT_TRIANGLE


def _report_exit(report: LawReport) -> int:
    if report.verdict == "pass":
        return EXIT_OK
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def _print_report(report: LawReport, output: str) -> None:
    if output == "records":
        sys.stdout.write(serialize_report(report))
        return
    print(
        f"{report.verdict.upper()} {report.tnorm},{report.tconorm}"
        f" law={report.law} cases={report.cases} budget={report.budget}"
        f" seed={report.seed}"
    )
    if report.witness is not None:
        w = report.witness
        split = "" if w.split is None else (
            f" split u={format_ext(w.split[0])} v={format_ext(w.split[1])}"
        )
        print(
            f"witness at x={format_ext(w.x)}: lhs={format_unit(w.lhs)}"
            f" rhs={format_unit(w.rhs)}{split} ({w.detail})"
        )
        for slot, operand in enumerate(w.operands):
            label = chr(ord("f") + slot)
            sys.stdout.write(f"--- operand {label} ---\n{serialize(operand)}")


def _cmd_check(args) -> int:
    t, l = _load_pair(args)
    cfg = RandomDDFConfig(max_jumps=args.max_jumps)
    report = check_law(t, l, args.law, cfg, args.budget, args.seed)
    _print_report(report, args.output)
    return _report_exit(report)


def _cmd_mine(args) -> int:
    t, l = _load_pair(args)
    cfg = RandomDDFConfig(max_jumps=args.max_jumps)
    report = mine_counterexample(t, l, cfg, args.budget, args.seed)
    _print_report(report, args.output)
    return _report_exit(report)


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _cmd_catalog(_args) -> int:
    for name in TNORM_NAMES:
        t = catalog_tnorm(name)
        d = t.declared
        print(
            f"tnorm {name} commutative={_flag(d.is_commutative)}"
            f" associative={_flag(d.is_associative)}"
            f" identity_one={_flag(d.has_one_identity)}"
            f" monotone={_flag(d.is_monotone)}"
            f" left_continuous={_flag(d.is_left_continuous)}"
            f" weakly_left_continuous={_flag(d.is_weakly_left_continuous)}"
            f" continuous={_flag(d.is_continuous)}"
        )
    for form in TCONORM_FORMS:
        name, sep, _ = form.partition(":")
        # A family's traits do not depend on its parameter.
        d = catalog_tconorm(name, 2 if sep else None).declared
        print(
            f"tconorm {form} tconorm_axioms={_flag(d.is_tconorm)}"
            f" continuous={_flag(d.is_continuous)}"
            f" strictly_increasing={_flag(d.satisfies_ls)}"
            f" conditionally_strictly_increasing={_flag(d.satisfies_lcs)}"
            f" archimedean={_flag(d.is_archimedean)}"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "tau": _cmd_tau,
        "classify": _cmd_classify,
        "check": _cmd_check,
        "mine": _cmd_mine,
        "catalog": _cmd_catalog,
    }
    try:
        return handlers[args.command](args)
    # Catalog, parse and unsupported-pair errors are all ValueErrors.
    except (CliInputError, ValueError) as exc:
        print(f"deltaplus: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
