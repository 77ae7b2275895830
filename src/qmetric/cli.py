"""Command line front end.

Subcommands: verify, construct, search, lipschitz, distance, nogo-m2,
pdelta.  Exit codes are a stable contract: 0 for success or a passing
verdict, 1 for a mathematically negative result, 2 for usage or parse
errors.  All matrix input and output uses the shared JSON exchange format,
so constructions pipe into verification and search outputs pipe into the
transport computations.

`main` reads a well-formed command from a table compiled, on the
subcommand's first call, from that subcommand's own parser, a child of the
full parser `build_parser` builds; the table holds the parser's actions,
so every option keeps one definition.  It reads exact option strings,
values and positionals in one run, and declines everything else: a
`--opt=value` form, an abbreviation, `--`, `-h`, an argument or value
starting with "-", a value its type or choices refuse, a missing argument,
positionals split by options.  A declined command goes to the full parser,
so its namespace, help, usage and error messages are the ones that parser
gives.  `verify` formats its report's fields once and, from one walk of
them, fills both the report file's template and the `--json` payload's
(see `exchange._layouts`).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import exchange
from .algebra import as_shape, diag_projector
from .axioms import (
    M2_DIAG_PROJECTOR,
    M2_NOGO_WITNESS,
    M2_TRIANGLE_DEFECT,
    MODES,
    REPRESENTATION,
    MetricCandidate,
    ToleranceConfig,
    m2_admissible,
    m2_defect_quadratic_form,
    triangle_defect,
    verify,
)
from .construct import conic_combine, direct_sum, from_finite_metric, tensor_product
from .lipschitz import MKDistance, State, exact_distance, lip_seminorm, mk_distance
from .search import SearchConfig, feasibility_search


def _parse_shape(text: str):
    try:
        return as_shape(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise exchange.ExchangeError(f"bad shape {text!r}: {exc}") from exc


def _tolerance_config(args) -> ToleranceConfig:
    return ToleranceConfig(
        eq_tol=args.eq_tol,
        psd_tol=args.psd_tol,
        strict_floor=args.floor,
        sample_count=args.samples,
        seed=args.seed,
    )


def _say(args, text) -> None:
    """Print text(), a str, unless --quiet or --json; otherwise build nothing."""
    if not args.quiet and not args.json:
        print(text())


def _emit_json(args, payload) -> None:
    """Under --json print payload(), a document's field texts, in their compact layout; otherwise build nothing."""
    if args.json:
        print(*exchange._layouts(payload(), None))


def _report_table(report) -> str:
    lines = [f"{'axiom':<10}{'passed':<9}margin"]
    for rec in report.records:
        margin = "indeterminate" if rec.indeterminate else f"{rec.margin:+.6e}"
        lines.append(f"{rec.axiom:<10}{'yes' if rec.passed else 'no':<9}{margin}")
    lines.append(f"overall: {'pass' if report.passed else 'fail'} (mode {report.mode})")
    return "\n".join(lines)


def _matrix_table(arr: np.ndarray) -> str:
    rows = []
    for row in np.asarray(arr):
        rows.append("  ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in row))
    return "\n".join(rows)


def cmd_pdelta(args) -> int:
    shape = _parse_shape(args.shape)
    p = diag_projector(shape)
    if args.out:
        exchange.save_element(p, args.out)
    _say(args, lambda: _matrix_table(p.data))
    _emit_json(args, lambda: exchange._matrix_node(p))
    return 0


def cmd_verify(args) -> int:
    rho = exchange.load_element(args.path, expect_order=2)
    cfg = _tolerance_config(args)
    report = verify(rho, cfg, mode=args.mode)
    # the report file's text, the payload's or both, from one walk of the report's field texts
    indents = [2] * bool(args.report) + [None] * bool(args.json)
    texts = exchange._layouts(exchange._report_node(report), *indents) if indents else []
    if args.report:
        exchange._write(args.report, texts[0])
    _say(args, lambda: _report_table(report))
    if args.json:
        print(texts[-1])
    return 0 if report.passed else 1


def cmd_construct(args) -> int:
    cfg = _tolerance_config(args)
    needed = 1 if args.construction == "from-metric" else 2
    if len(args.inputs) != needed:
        raise exchange.ExchangeError(
            f"{args.construction} takes exactly {needed} input file(s)"
        )
    if args.r is not None and args.construction in ("from-metric", "tensor"):
        raise exchange.ExchangeError(f"{args.construction} takes no --r; only conic and direct-sum do")
    r = 1.0 if args.r is None else args.r
    if args.construction == "from-metric":
        candidate = from_finite_metric(exchange.load_metric_space(args.inputs[0]))
    else:
        a, b = (MetricCandidate(exchange.load_element(p, expect_order=2)) for p in args.inputs)
        if args.construction == "conic":
            candidate = conic_combine(a, b, r)
        elif args.construction == "direct-sum":
            candidate = direct_sum(a, b, r)
        else:
            candidate = tensor_product(a, b, mode=args.mode)
    report = verify(candidate.rho, cfg, mode=args.mode)
    if args.out:
        exchange.save_element(candidate.rho, args.out)
    _say(args, lambda: _report_table(report))
    _emit_json(
        args,
        lambda: {"candidate": exchange._matrix_node(candidate.rho), "report": exchange._report_node(report)},
    )
    return 0 if report.passed else 1


def cmd_search(args) -> int:
    cfg = SearchConfig(
        shape=_parse_shape(args.shape),
        floor=args.eps,
        trace_target=args.trace_target,
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
        residual_tol=args.residual_tol,
        include_triangle=not args.drop_triangle,
    )
    outcome = feasibility_search(cfg, mode=args.mode)
    if args.out:
        exchange.save_outcome(outcome, args.out)

    def summary() -> str:
        text = (
            f"status: {outcome.status}\n"
            f"best residual: {outcome.best_residual:.3e} after "
            f"{outcome.iterations_run} iterations, {outcome.restarts_run} restart(s)"
        )
        if outcome.candidate is not None:
            text += "\n" + _report_table(outcome.candidate.report)
        return text

    _say(args, summary)
    _emit_json(args, lambda: exchange._outcome_node(outcome))
    return 0 if outcome.found else 1


def cmd_lipschitz(args) -> int:
    rho = exchange.load_element(args.rho, expect_order=2)
    elem = exchange.load_element(args.element, expect_order=1)
    value = lip_seminorm(elem, rho)
    _say(args, lambda: f"{value:.12g}")
    _emit_json(args, lambda: exchange._node({"lip_seminorm": value}))
    return 0


def _point_index(text: str, n: int) -> int:
    try:
        idx = int(text)
    except ValueError:
        raise exchange.ExchangeError(f"point index must be an integer, got {text!r}") from None
    if not 0 <= idx < n:
        raise exchange.ExchangeError(f"point index {idx} out of range for {n} points")
    return idx


def cmd_distance(args) -> int:
    if args.classical and args.rho:
        raise exchange.ExchangeError("--classical and --rho exclude each other")
    if args.classical:
        space = exchange.load_metric_space(args.classical)
        i, j = _point_index(args.phi, space.n), _point_index(args.psi, space.n)
        if args.method == "auto":
            # the exact kernel reads the space's distances: no candidate, no states
            value = exact_distance(space.dist, i, j)
            result = MKDistance(value, value, True, 0)
        else:
            # the general bracket needs rho
            phi, psi = (State.classical(np.eye(space.n)[k]) for k in (i, j))
            result = mk_distance(
                phi, psi, from_finite_metric(space), method=args.method, max_iter=args.max_iter
            )
    elif not args.rho:
        raise exchange.ExchangeError("distance needs --classical or --rho")
    else:
        rho = exchange.load_element(args.rho, expect_order=2)
        phi = exchange.load_state(args.phi)
        psi = exchange.load_state(args.psi)
        result = mk_distance(phi, psi, rho, method=args.method, max_iter=args.max_iter)
    _say(
        args,
        lambda: f"lower: {result.lower:.12g}\nupper: {result.upper:.12g}\n"
        f"converged: {result.converged}\niterations: {result.iterations}",
    )
    _emit_json(args, lambda: exchange._node(result.to_dict()))
    return 0


def cmd_nogo_m2(args) -> int:
    lambdas = [float(v) for v in args.lambdas.split(",")]
    if any(lam <= 0 for lam in lambdas):
        raise exchange.ExchangeError("all family parameters must be positive")
    p = diag_projector(as_shape((2,)))
    proj_ok = bool(np.array_equal(p.data.real, M2_DIAG_PROJECTOR) and np.all(p.data.imag == 0))
    ok = proj_ok
    results = []
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=8)))
    for lam in lambdas:
        rho = m2_admissible(lam)
        defect = triangle_defect(rho).data
        matched = bool(np.max(np.abs(defect - lam * M2_TRIANGLE_DEFECT)) <= 1e-12 * max(1.0, lam))
        xs = np.concatenate([grid, rng.standard_normal((args.samples, 8))])
        lhs = np.einsum("ni,ij,nj->n", xs, defect.real, xs)
        rhs = lam * np.array([m2_defect_quadratic_form(x) for x in xs])
        norms = np.einsum("ni,ni->n", xs, xs)
        identity_ok = bool(np.all(np.abs(lhs - rhs) <= 1e-10 * lam * np.maximum(norms, 1.0)))
        witness_value = float(M2_NOGO_WITNESS @ defect.real @ M2_NOGO_WITNESS)
        witness_ok = abs(witness_value + 2.0 * lam) <= 1e-12 * max(1.0, lam)
        report = verify(rho, ToleranceConfig(seed=args.seed))
        fails_at_v = report.failing == ("v",)
        results.append(
            {
                "lambda": lam,
                "defect_matches": matched,
                "identity_holds": identity_ok,
                "witness_value": witness_value,
                "witness_matches": witness_ok,
                "fails_exactly_at_v": fails_at_v,
                "triangle_margin": report.record("v").margin,
            }
        )
        ok = ok and matched and identity_ok and witness_ok and fails_at_v

    def summary() -> str:
        lines = [
            f"lambda={r['lambda']}: defect match {r['defect_matches']}, "
            f"identity {r['identity_holds']}, witness {r['witness_value']:+.3f} "
            f"(expected {-2 * r['lambda']:+.3f}), fails exactly at v: "
            f"{r['fails_exactly_at_v']}"
            for r in results
        ]
        return "\n".join(lines + ["no-go reproduction: " + ("ok" if ok else "MISMATCH")])

    _say(args, summary)
    _emit_json(args, lambda: exchange._node({"ok": ok, "projector_matches": proj_ok, "results": results}))
    return 0 if ok else 1


def _add_common(parser: argparse.ArgumentParser, seeded: bool = False) -> None:
    parser.add_argument("--quiet", action="store_true", help="suppress tables")
    parser.add_argument("--json", action="store_true", help="emit machine output only")
    if seeded:
        parser.add_argument("--seed", type=int, default=0)


def _add_tolerances(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eq-tol", type=float, default=1e-9, dest="eq_tol")
    parser.add_argument("--psd-tol", type=float, default=1e-9, dest="psd_tol")
    parser.add_argument("--floor", type=float, default=None)
    parser.add_argument(
        "--samples", type=int, default=8, help="recorded in the report; no check reads it"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetric",
        description="verify, construct, and search for quantum metrics on multi-matrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdelta", help="emit the diagonal projector for a shape")
    p.add_argument("--shape", required=True, help="block sizes, e.g. 2 or 1,1,3")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_pdelta)

    p = sub.add_parser("verify", help="check a candidate against the axioms")
    p.add_argument("path")
    p.add_argument("--mode", choices=MODES, default=REPRESENTATION)
    p.add_argument("--report", help="write the JSON report here")
    _add_tolerances(p)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="build candidates from known constructions")
    p.add_argument(
        "construction", choices=["from-metric", "conic", "direct-sum", "tensor"]
    )
    p.add_argument("inputs", nargs="+")
    p.add_argument(
        "--r",
        type=float,
        default=None,
        help="conic: weight of the second input; direct-sum: cross-distance (default 1.0); "
        "the other constructions take none",
    )
    p.add_argument("--mode", choices=MODES, default=REPRESENTATION)
    p.add_argument("--out")
    _add_tolerances(p)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="feasibility search on a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--mode", choices=MODES, default=REPRESENTATION)
    p.add_argument("--eps", type=float, default=1e-3, help="nondegeneracy floor")
    p.add_argument("--trace-target", type=float, default=None, dest="trace_target")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--max-iter", type=int, default=5000, dest="max_iter")
    p.add_argument("--residual-tol", type=float, default=1e-8, dest="residual_tol")
    p.add_argument(
        "--drop-triangle",
        action="store_true",
        help="diagnostic: search without the triangle constraint",
    )
    p.add_argument("--out")
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("lipschitz", help="seminorm of an element under a candidate")
    p.add_argument("--rho", required=True)
    p.add_argument("--element", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_lipschitz)

    p = sub.add_parser("distance", help="transport distance between two states")
    p.add_argument(
        "--classical",
        help="metric-space file; --phi/--psi are point indices; with --method auto the "
        "exact distance is read from the space's distances, no candidate is built",
    )
    p.add_argument(
        "--rho", help="candidate file; --phi/--psi are state files; excludes --classical"
    )
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--method", choices=["auto", "ascent"], default="auto")
    p.add_argument(
        "--max-iter",
        type=int,
        default=500,
        dest="max_iter",
        help="accepted and ignored: the general-shape lower end is computed in closed form",
    )
    _add_common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("nogo-m2", help="reproduce the two-level no-go computation")
    p.add_argument("--lambdas", default="0.1,1,10")
    p.add_argument("--samples", type=int, default=10000)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_nogo_m2)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The full parser, built once per process and reused by every `main` call.

    Building it costs about twenty parses, which is a large share of a
    small query run in-process.  `main` reads a well-formed command from
    `_table`, compiled from this parser's children and read in a few
    microseconds, where argparse takes 50-80; every command the table
    declines is parsed here.
    """
    return build_parser()


@lru_cache(maxsize=None)
def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's own parser by name: the children `_parser()` hands its arguments to."""
    (sub,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class _Table(NamedTuple):
    """A subcommand's parser compiled for `_match`; see `_table`."""

    options: dict[str, argparse.Action]
    positionals: tuple[argparse.Action, ...]
    required: tuple[argparse.Action, ...]
    defaults: dict[str, object]


@lru_cache(maxsize=None)
def _table(command: str) -> _Table | None:
    """The subcommand's parser compiled to a table; None where it holds what the table cannot read.

    The table keeps the parser's own actions: each `store` (`nargs=None`)
    and `store_true` action under each of its exact option strings, the
    positionals in order (`nargs=None`, or "+" for the last), the required
    options, and the namespace before any argument is read, laid out from
    the action defaults and `set_defaults` as argparse lays it out.  Help
    actions stay out of the table, so `-h` and `--help` decline.  Any
    other action class, an action with both a type and a str default
    (argparse converts such a default; no parser here has one), a mutually
    exclusive group or `fromfile_prefix_chars` leaves no table at all.
    """
    parser = _commands()[command]
    if parser.prefix_chars != "-" or parser.fromfile_prefix_chars or parser._mutually_exclusive_groups:
        return None
    options, positionals, defaults = {}, [], {}
    actions = [a for a in parser._actions if type(a) is not argparse._HelpAction]
    for action in actions:
        kind = type(action)
        if kind is argparse._StoreAction:
            if not (action.nargs is None or action.nargs == "+" and not action.option_strings):
                return None
        elif kind is not argparse._StoreTrueAction:
            return None
        if action.dest == argparse.SUPPRESS or action.type is not None and isinstance(action.default, str):
            return None
        if action.option_strings:
            options.update(dict.fromkeys(action.option_strings, action))
        else:
            positionals.append(action)
        if action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
    if any(a.nargs == "+" for a in positionals[:-1]):
        return None
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    required = tuple(a for a in actions if a.required and a.option_strings)
    return _Table(options, tuple(positionals), required, defaults)


class _Declined(Exception):
    """Raised where `_match` leaves a command to the full parser."""


def _value(action: argparse.Action, text: str):
    """text through the action's type, str where it has none, then checked against its choices.

    Where argparse would report an error, this declines instead.
    """
    try:
        value = (action.type or str)(text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        raise _Declined from None
    if action.choices is not None and value not in action.choices:
        raise _Declined
    return value


def _match(command: str, args: list[str]) -> argparse.Namespace | None:
    """The namespace `_parser().parse_args([command, *args])` gives, read from `_table`; None to decline.

    It declines wherever it cannot decide exactly as argparse would, and
    `_parse` then hands the command to the full parser, so help, usage and
    error text stay that parser's own: on an argument starting with "-"
    that is not an exact option string of the table (a `--opt=value` form,
    an abbreviation, `--`, `-h`, a negative number), on an option value
    starting with "-", on a type that refuses a value or a value outside
    the choices, on a missing positional or required option, and on
    positionals that options split.
    Each value goes through its action's type as argparse converts it; the
    parsers here use only int and float, which have no side effects.
    """
    table = _table(command)
    if table is None:
        return None
    options, positionals = table.options, table.positionals
    values = dict(table.defaults)
    seen = set()
    run, end = [], 0
    i, n = 0, len(args)
    try:
        while i < n:
            text = args[i]
            action = options.get(text)
            if action is None:
                if text[:1] == "-" or run and end != i:
                    return None
                run.append(text)
                i = end = i + 1
            elif action.nargs == 0:
                seen.add(action)
                values[action.dest] = action.const
                i += 1
            elif i + 1 < n and args[i + 1][:1] != "-":
                seen.add(action)
                values[action.dest] = _value(action, args[i + 1])
                i += 2
            else:
                return None
        if len(run) < len(positionals) or len(run) > len(positionals) and not (
            positionals and positionals[-1].nargs == "+"
        ):
            return None
        for k, action in enumerate(positionals):
            if action.nargs:
                values[action.dest] = [_value(action, t) for t in run[k:]]
            else:
                values[action.dest] = _value(action, run[k])
        if not seen.issuperset(table.required):
            return None
    except _Declined:
        return None
    # the top-level parser sets `command`, then copies in the subcommand's namespace
    parsed = argparse.Namespace(command=command)
    vars(parsed).update(values)
    return parsed


def _parse(argv: list[str]) -> argparse.Namespace:
    """_parser().parse_args(argv): read by `_match` where it reads the command, else by the full parser.

    `_match` reads a well-formed command from the subcommand's table and
    declines everything else.  A declined command, or one that names no
    subcommand, goes to the full parser, which prints its own help, usage
    and errors.
    """
    args = _match(argv[0], argv[1:]) if argv and argv[0] in _commands() else None
    return _parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (exchange.ExchangeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
