"""Command-line front end.

Exit codes: 0 success, 1 verification failure or internal error,
2 parse error, 3 dimension mismatch, 4 not a derivation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .context import build_context
from .derivations import (
    DerivationSpec,
    check_derivation,
    decompose_torus_derivation,
    express_hh1,
    failing_relations,
    lift_to_torus,
    rejecting_non_derivations,
)
from .errors import (
    DimensionMismatchError,
    InconsistentDecompositionError,
    NotADerivationError,
    ParseError,
    QmatError,
)
from .limits import ENV_ERROR, restored_max_terms, set_max_terms
from .matrixalg import qdet, qminor
from .serialize import (
    derivation_from_json,
    element_from_json,
    element_to_json,
    hh1_to_json,
)
from .suite import run_suite
from .tower import build_table, embed


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_element(path: str, alg: str | None, n: int | None):
    return element_from_json(_load_json(path), alg=alg, n=n)


def _index_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from exc


def cmd_mul(args) -> int:
    lhs = _load_element(args.lhs, args.alg, args.n)
    rhs = _load_element(args.rhs, args.alg, lhs.ctx.n)
    _emit(element_to_json(lhs * rhs))
    return 0


def cmd_det(args) -> int:
    _emit(element_to_json(qdet(build_context(args.n))))
    return 0


def cmd_minor(args) -> int:
    ctx = build_context(args.n)
    _emit(
        element_to_json(
            qminor(ctx, _index_list(args.rows), _index_list(args.cols))
        )
    )
    return 0


def cmd_embed(args) -> int:
    x = _load_element(args.file, "Mq", args.n)
    table = build_table(x.ctx)
    _emit(element_to_json(embed(table, x)))
    return 0


def cmd_central(args) -> int:
    x = _load_element(args.file, args.alg, args.n)
    central = x.commutes_with_all_generators()
    _emit({"central": central})
    return 0


def cmd_export_table(args) -> int:
    ctx = build_context(args.n)
    table = build_table(ctx)
    steps = {}
    for step, entries in table.entries.items():
        steps[f"({step[0]},{step[1]})"] = {
            f"({i},{a})": element_to_json(entries[(i, a)])
            for (i, a) in ctx.generators
        }
    _emit({"n": ctx.n, "steps": steps})
    return 0


def _load_spec(args) -> DerivationSpec:
    return derivation_from_json(_load_json(args.file), n=args.n)


def cmd_derivation(args) -> int:
    spec = _load_spec(args)
    if args.action == "check":
        report = check_derivation(spec)
        _emit(
            {
                "n": spec.ctx.n,
                "alg": spec.alg,
                "relations": [
                    {"pair": list(map(list, e["pair"])), "ok": e["ok"]}
                    for e in report
                ],
                "is_derivation": all(e["ok"] for e in report),
            }
        )
        bad = failing_relations(report)
        if bad:
            raise NotADerivationError.at_pairs(bad)
        return 0
    table = build_table(spec.ctx)
    if args.action == "decompose":
        lifted = spec if spec.alg == "torus" else lift_to_torus(table, spec)
        with rejecting_non_derivations(spec):
            dec = decompose_torus_derivation(lifted)
        _emit(
            {
                "x": element_to_json(dec.x),
                "z": [
                    {"gen": [i, a], "value": element_to_json(dec.z[(i, a)])}
                    for (i, a) in spec.ctx.generators
                ],
            }
        )
        return 0
    # the parser's choices leave only "hh1"
    _emit(hh1_to_json(express_hh1(table, spec)))
    return 0


def cmd_verify_suite(args) -> int:
    report = run_suite(args.n, canonical=args.canonical)
    if args.out == "markdown":
        sys.stdout.write(report.to_markdown())
    else:
        _emit(report.to_json())
    return 0 if report.all_pass() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmat",
        description="Exact computations in quantized matrix coordinate rings"
        " and the quantum torus.",
    )
    parser.add_argument(
        "--max-terms",
        type=int,
        default=None,
        help="cap on intermediate term counts (env QMAT_MAX_TERMS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="multiply two serialized elements")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--alg", choices=["Mq", "torus"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("det", help="print the quantum determinant")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("minor", help="print a quantum minor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rows", required=True, help="comma-separated row indices")
    p.add_argument("--cols", required=True, help="comma-separated column indices")
    p.set_defaults(fn=cmd_minor)

    p = sub.add_parser("embed", help="embed an algebra element into the torus")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("central", help="test whether an element is central")
    p.add_argument("file")
    p.add_argument("--alg", choices=["Mq", "torus"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=cmd_central)

    p = sub.add_parser(
        "export-table", help="emit every tower step generator as JSON"
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_export_table)

    p = sub.add_parser("derivation", help="check, decompose or coordinatize")
    p.add_argument("action", choices=["check", "decompose", "hh1"])
    p.add_argument("file")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=cmd_derivation)

    p = sub.add_parser("verify-suite", help="run the full verification suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", choices=["json", "markdown"], default="json")
    p.add_argument(
        "--canonical",
        action="store_true",
        help="omit timings for byte-identical output",
    )
    p.set_defaults(fn=cmd_verify_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with restored_max_terms():
            if ENV_ERROR is not None:
                raise ParseError(f"QMAT_MAX_TERMS: {ENV_ERROR}")
            if args.max_terms is not None:
                try:
                    set_max_terms(args.max_terms)
                except ValueError as exc:
                    raise ParseError(f"--max-terms: {exc}") from exc
            return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotADerivationError, InconsistentDecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except QmatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
