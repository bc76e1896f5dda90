"""Command-line front end.

Exit codes: 0 for a clean result, 1 when an exact verification check
reports a mismatch, 2 for usage, parse, and domain errors, 3 for an
internal error (a bug, reported by exception class and message).  With
``--format json`` the output is a single stable-keyed JSON object whose
matrices are nested arrays of exact strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .affine import to_affine
from .errors import MatcanonError, ParseError
from .fields import Field
from .fileio import (
    field_label,
    matrix_strings,
    parse_field_words,
    parse_matrix_file,
    parse_pair_file,
)
from .matrix import similarity_defect
from .pairs import (
    InvariantTriple,
    PairPoint,
    Sl2Pair,
    g_value,
    hom_dimension,
    invariants,
    q_points,
    reduce_to_q,
    split_off_simple,
)
from .rnf import (
    assemble_rnf_matrix,
    invariant_factors,
    partition_of,
    rnf_transform,
)
from .selftest import run_selftest

EXIT_CODES = {"ok": 0, "mismatch": 1, "error": 2, "internal": 3}


class Report:
    """Outcome of one invocation: a status plus a structured payload."""

    __slots__ = ("status", "payload")

    def __init__(self, status: str, payload: dict):
        self.status = status
        self.payload = payload

    def as_dict(self) -> dict:
        out = {"status": self.status}
        out.update(self.payload)
        return out


def _field_override(args) -> Field | None:
    if getattr(args, "field", None) is None:
        return None
    return parse_field_words(args.field)


def _chain_payload(chain) -> list[list[str]]:
    return [f.coefficient_strings() for f in chain]


def _cmd_rnf(args) -> Report:
    a = parse_matrix_file(args.matrix, _field_override(args))
    r, t, chain = rnf_transform(a)
    payload = {
        "field": field_label(a.field),
        "invariant_factors": _chain_payload(chain),
        "partition": list(partition_of(chain).parts),
        "rnf_matrix": matrix_strings(r),
        "transform": matrix_strings(t),
    }
    if args.verify:
        # rnf_transform has certified (R, T) or raised BasisFailure.
        payload["verified"] = True
    return Report("ok", payload)


def _cmd_affine(args) -> Report:
    a = parse_matrix_file(args.matrix, _field_override(args))
    rep = to_affine(invariant_factors(a))
    return Report("ok", {
        "field": field_label(a.field),
        "partition": list(rep.partition.parts),
        "qs": _chain_payload(rep.qs),
        "matrix": matrix_strings(rep.realize()),
    })


def _cmd_normal_form(args) -> Report:
    a = parse_matrix_file(args.matrix, _field_override(args))
    chain = invariant_factors(a)
    payload = {
        "family": args.family,
        "field": field_label(a.field),
        "partition": list(partition_of(chain).parts),
    }
    if args.family == "rational":
        payload["invariant_factors"] = _chain_payload(chain)
        payload["matrix"] = matrix_strings(assemble_rnf_matrix(chain))
    else:
        rep = to_affine(chain)
        payload["qs"] = _chain_payload(rep.qs)
        payload["matrix"] = matrix_strings(rep.realize())
    return Report("ok", payload)


def _cmd_verify(args) -> Report:
    override = _field_override(args)
    a = parse_matrix_file(args.matrix, override)
    r = parse_matrix_file(args.rnf_matrix, override if override else a.field)
    t = parse_matrix_file(args.transform, override if override else a.field)
    payload = {"field": field_label(a.field)}
    reason = similarity_defect(a, r, t)
    if reason is not None:
        payload["reason"] = reason
        return Report("mismatch", payload)
    return Report("ok", payload)


def _pair_from_file(path: str, override: Field | None) -> Sl2Pair:
    a, b = parse_pair_file(path, override)
    return Sl2Pair(a, b)


def _cmd_pairs_invariants(args) -> Report:
    pair = _pair_from_file(args.pair, _field_override(args))
    y = invariants(pair)
    return Report("ok", {
        "field": field_label(pair.field),
        "triple": [str(y.x1), str(y.x2), str(y.x3)],
        "g_value": str(g_value(y)),
        "in_y": not g_value(y).is_zero(),
    })


def _cmd_pairs_fiber(args) -> Report:
    field = _field_override(args)
    if field is None:
        raise ParseError("pairs fiber needs --field")
    y = InvariantTriple(field(args.x1), field(args.x2), field(args.x3))
    points = q_points(y)
    return Report("ok", {
        "field": field_label(field),
        "triple": [str(y.x1), str(y.x2), str(y.x3)],
        "count": len(points),
        "fiber": [
            {"a11": str(q.a11), "b11": str(q.b11), "b21": str(q.b21)}
            for q in points
        ],
    })


def _cmd_pairs_reduce(args) -> Report:
    pair = _pair_from_file(args.pair, _field_override(args))
    g, q = reduce_to_q(pair)
    y = invariants(pair)
    return Report("ok", {
        "field": field_label(pair.field),
        "triple": [str(y.x1), str(y.x2), str(y.x3)],
        "q_form": {"a11": str(q.a11), "b11": str(q.b11), "b21": str(q.b21)},
        "transform": matrix_strings(g),
    })


def _cmd_pairs_hom(args) -> Report:
    override = _field_override(args)
    m1, m2 = parse_pair_file(args.source, override)
    t1, t2 = parse_pair_file(args.target, override)
    dim = hom_dimension(PairPoint(m1, m2), PairPoint(t1, t2))
    return Report("ok", {"hom_dimension": dim})


def _cmd_pairs_split(args) -> Report:
    m1, m2 = parse_pair_file(args.pair, _field_override(args))
    point = PairPoint(m1, m2)
    tail, h = split_off_simple(point)
    payload = {
        "field": field_label(point.field),
        "t1": matrix_strings(tail.m1),
        "t2": matrix_strings(tail.m2),
        "transform": matrix_strings(h),
    }
    if tail.m1.trace().is_zero() and tail.m2.trace().is_zero():
        y = invariants(Sl2Pair(tail.m1, tail.m2))
        payload["t_invariants"] = [str(y.x1), str(y.x2), str(y.x3)]
    return Report("ok", payload)


def _cmd_selftest(args) -> Report:
    checks = run_selftest()
    payload = {
        "checks": [{"name": name, "status": "ok" if ok else "mismatch"} for name, ok in checks],
    }
    status = "ok" if all(ok for _, ok in checks) else "mismatch"
    return Report(status, payload)


def _render_value(value, indent: int, lines: list[str], label: str):
    pad = "  " * indent
    if isinstance(value, list) and value and isinstance(value[0], list):
        lines.append(f"{pad}{label}:")
        if value and isinstance(value[0][0], list):
            for i, sub in enumerate(value):
                _render_value(sub, indent + 1, lines, f"[{i}]")
        else:
            widths = [max(len(str(row[j])) for row in value) for j in range(len(value[0]))]
            for row in value:
                cells = "  ".join(str(x).rjust(w) for x, w in zip(row, widths))
                lines.append(f"{pad}  [{cells}]")
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        lines.append(f"{pad}{label}:")
        for entry in value:
            inner = ", ".join(f"{k}={entry[k]}" for k in entry)
            lines.append(f"{pad}  {inner}")
    elif isinstance(value, dict):
        inner = ", ".join(f"{k}={value[k]}" for k in value)
        lines.append(f"{pad}{label}: {inner}")
    elif isinstance(value, list):
        lines.append(f"{pad}{label}: [{', '.join(str(x) for x in value)}]")
    else:
        lines.append(f"{pad}{label}: {value}")


def render_text(report: Report) -> str:
    lines = [f"status: {report.status}"]
    for key, value in report.payload.items():
        _render_value(value, 0, lines, key)
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, separators=(",", ": ")) + "\n"


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--field", nargs="+", metavar=("Q|GF", "p"),
                        help="field override: Q, or GF <p>")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matcanon",
        description="Exact rational normal forms, affine representative families, "
                    "and invariants of trace-zero 2x2 matrix pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rnf", help="invariant factors, normal form, and transform")
    p.add_argument("matrix")
    p.add_argument("--verify", action="store_true",
                   help="report that T passed its certificate A*T == T*R, det T != 0")
    _add_common(p)
    p.set_defaults(func=_cmd_rnf)

    p = sub.add_parser("affine", help="affine-family representative of the class")
    p.add_argument("matrix")
    _add_common(p)
    p.set_defaults(func=_cmd_affine)

    p = sub.add_parser("normal-form", help="normal form in the chosen family")
    p.add_argument("matrix")
    p.add_argument("--family", choices=("rational", "affine"), required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("verify", help="check T^-1 * A * T = R exactly")
    p.add_argument("matrix")
    p.add_argument("rnf_matrix")
    p.add_argument("transform")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    pairs = sub.add_parser("pairs", help="trace-zero 2x2 pair operations")
    pairs_sub = pairs.add_subparsers(dest="pairs_command", required=True)

    p = pairs_sub.add_parser("invariants", help="(det A, tr AB, det B) of a pair file")
    p.add_argument("pair")
    _add_common(p)
    p.set_defaults(func=_cmd_pairs_invariants)

    p = pairs_sub.add_parser("fiber", help="all Q-form points over a triple")
    p.add_argument("x1")
    p.add_argument("x2")
    p.add_argument("x3")
    _add_common(p)
    p.set_defaults(func=_cmd_pairs_fiber)

    p = pairs_sub.add_parser("reduce", help="conjugate a pair into the Q family")
    p.add_argument("pair")
    _add_common(p)
    p.set_defaults(func=_cmd_pairs_reduce)

    p = pairs_sub.add_parser("hom", help="dimension of the intertwiner space")
    p.add_argument("source")
    p.add_argument("target")
    _add_common(p)
    p.set_defaults(func=_cmd_pairs_hom)

    p = pairs_sub.add_parser("split", help="split the fixed simple pair off a larger pair")
    p.add_argument("pair")
    _add_common(p)
    p.set_defaults(func=_cmd_pairs_split)

    p = sub.add_parser("selftest", help="run the built-in golden checks")
    _add_common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except MatcanonError as exc:
        report = Report("error", {"error": type(exc).__name__, "message": str(exc)})
    except OSError as exc:
        report = Report("error", {"error": "IOError", "message": str(exc)})
    except Exception as exc:
        import traceback  # only a bug gets here; keep it off the start-up path

        traceback.print_exc(file=sys.stderr)
        report = Report("internal", {"error": type(exc).__name__, "message": str(exc)})
    output = render_json(report) if args.format == "json" else render_text(report)
    sys.stdout.write(output)
    return EXIT_CODES[report.status]


if __name__ == "__main__":
    sys.exit(main())
