"""Command-line entry point: analyze phases, fit decay rates, run the corpus.

Commands:

* ``analyze``: parse a phase, report its Newton polygon, classification,
  heights and exact k_p values as JSON (optionally an SVG of the polygon).
* ``decay``: numerically fit the decay exponent of the oscillatory integral
  (or run the maximal-function L^q scan with ``--randol``), emitting CSV.
* ``corpus``: replay the built-in classified corpus and identity suites.

All symbolic values serialize as exact "num/den" strings.  Exit codes:
0 success, 1 corpus mismatch, 2 parse error (or a ``corpus --filter`` that
matches no row), 3 exponent data requested for an out-of-range class, 4
numeric non-convergence, a lambda outside the feasible range, or a
quadrature or offset grid beyond its budget (``oscint.BudgetExceeded``).
``decay`` runs ``oscint.fit_decay``: a lambda whose order check fails is left
out of the fit and printed as a warning; a grid of fewer than three lambdas
(refused before any quadrature) or fewer than three converged ones exits 4.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from . import classify as cls
from . import corpus as corpus_mod
from . import exponent as expo
from . import newton
from .polyring import INFINITE_ORDER, BivariatePolynomial, parse_polynomial

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_OUT_OF_SCOPE = 3
EXIT_NUMERIC = 4

_RATIONAL_TEXT = re.compile(r"[+-]?(\d+(/\d+)?|\d*\.\d+)")

WARN_RANK = "rank >= 1: out of scope"
WARN_HEIGHT = "h > 2: unsupported"


def rational_str(value) -> str:
    """Exact num/den rendering; integers drop the denominator."""
    f = value if isinstance(value, (int, Fraction)) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def order_str(value) -> str:
    return "inf" if value == INFINITE_ORDER else str(value)


def parse_rational(text: str) -> Fraction:
    """An integer, a num/den ratio or a plain decimal, as an exact Fraction.

    Exponent notation is refused (``1e999999999`` would build a
    billion-digit integer), and so is a zero denominator; both raise
    ValueError, which the CLI reports as a parse error.
    """
    token = text.strip()
    if not _RATIONAL_TEXT.fullmatch(token):
        raise ValueError(f"not a rational number: {text!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_exponent(text: str) -> float:
    """A ``parse_rational`` value as a float; ValueError beyond the float range."""
    try:
        return float(parse_rational(text))
    except OverflowError:
        raise ValueError(f"{text!r} is beyond the float range") from None


# -- analyze -----------------------------------------------------------------------


def _face_record(face: newton.Face) -> Dict:
    rec: Dict = {
        "kind": face.kind,
        "points": [[rational_str(a), rational_str(b)] for a, b in face.points],
    }
    if face.weight is not None:
        rec["weight"] = [rational_str(face.weight[0]), rational_str(face.weight[1])]
    return rec


def build_report(phi_text: str, p_values: Sequence[Fraction]) -> Tuple[Dict, int]:
    """The analysis record and the exit status for one phase."""
    phi = parse_polynomial(phi_text)
    support = newton.taylor_support(phi)
    poly = newton.build_polygon(support)
    kind = cls.classify_singularity(phi)

    report: Dict = {
        "input": phi_text,
        "normalized": phi.to_string(),
        "taylor_support": sorted([list(p) for p in support]),
        "polygon": {
            "vertices": [list(v) for v in poly.vertices],
            "faces": [_face_record(f) for f in poly.faces],
            "distance": rational_str(poly.distance),
            "principal_face": _face_record(poly.principal_face),
        },
        "kind": kind.tag,
        "kind_label": kind.label(),
        "warnings": [],
    }
    if kind.tag == cls.D_TYPE:
        report["m"] = order_str(kind.m)
        report["n"] = order_str(kind.n)
    if kind.tag in (cls.E6, cls.E7, cls.E8, cls.CASE_BIV):
        report["k0"] = order_str(kind.k0)
        report["k1"] = order_str(kind.k1)

    status = EXIT_OK
    if kind.is_supported:
        heights = cls.height_report(phi, kind)
        profile = expo.kp_profile(heights.h, heights.h_lin)
        report["h"] = rational_str(heights.h)
        report["h_lin"] = rational_str(heights.h_lin)
        report["linearly_adapted"] = heights.linearly_adapted
        report["multiplicity"] = heights.multiplicity
        report["kp_table"] = [
            {"p": rational_str(p), "k": rational_str(profile.value_at_p(p))}
            for p in p_values
        ]
        report["profile"] = [
            {
                "slope": rational_str(seg.slope),
                "intercept": rational_str(seg.intercept),
                "u_min": rational_str(seg.x_lo),
                "u_max": rational_str(seg.x_hi),
            }
            for seg in profile.segments
        ]
    else:
        warning = WARN_RANK if kind.tag == cls.NONDEGENERATE_OR_RANK_POSITIVE else WARN_HEIGHT
        report["warnings"].append(warning)
        if p_values:
            status = EXIT_OUT_OF_SCOPE
    return report, status


def polygon_svg(polygon: Dict) -> str:
    """Small standalone SVG of a report's polygon record: region boundary,
    bisectrix, and the (d, d) marker."""
    verts = [(float(a), float(b)) for a, b in polygon["vertices"]]
    d = float(Fraction(polygon["distance"]))
    span = max(4.0, max(max(a, b) for a, b in verts) + 2.0, d + 2.0)
    scale = 360.0 / span

    def sx(t):
        return 20.0 + t * scale

    def sy(t):
        return 380.0 - t * scale

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" viewBox="0 0 400 400">',
        '<rect width="400" height="400" fill="white"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(span)}" y2="{sy(0)}" stroke="#888"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(0)}" y2="{sy(span)}" stroke="#888"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(span)}" y2="{sy(span)}" stroke="#4a90d9" stroke-dasharray="2,3"/>',
    ]
    top = verts[0]
    bottom = verts[-1]
    lines.append(
        f'<line x1="{sx(top[0])}" y1="{sy(top[1])}" x2="{sx(top[0])}" y2="{sy(span)}" stroke="black" stroke-dasharray="5,4"/>'
    )
    for (a1, b1), (a2, b2) in zip(verts, verts[1:]):
        lines.append(
            f'<line x1="{sx(a1)}" y1="{sy(b1)}" x2="{sx(a2)}" y2="{sy(b2)}" stroke="black" stroke-width="1.5"/>'
        )
    lines.append(
        f'<line x1="{sx(bottom[0])}" y1="{sy(bottom[1])}" x2="{sx(span)}" y2="{sy(bottom[1])}" stroke="black" stroke-dasharray="5,4"/>'
    )
    for a, b in verts:
        lines.append(f'<circle cx="{sx(a)}" cy="{sy(b)}" r="3.5" fill="black"/>')
        lines.append(
            f'<text x="{sx(a) + 6}" y="{sy(b) - 6}" font-size="11">({a:g},{b:g})</text>'
        )
    lines.append(f'<circle cx="{sx(d)}" cy="{sy(d)}" r="4" fill="none" stroke="#d94a4a" stroke-width="2"/>')
    lines.append(f'<text x="{sx(d) + 6}" y="{sy(d) + 12}" font-size="11" fill="#d94a4a">d={d:g}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def run_analyze(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        report, status = build_report(args.phi, args.p)
    except (cls.NormalizationFailed, cls.TruncationTooSmall) as exc:
        _emit_error(args.json_path, str(exc), EXIT_NUMERIC, out)
        return EXIT_NUMERIC
    except ValueError as exc:  # parse errors, a phase not critical at 0, empty support
        _emit_error(args.json_path, str(exc), EXIT_PARSE, out)
        return EXIT_PARSE

    text = json.dumps(report, indent=2, sort_keys=False)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text, file=out)
    if args.svg_path:
        with open(args.svg_path, "w", encoding="utf-8") as fh:
            fh.write(polygon_svg(report["polygon"]))
    return status


def _emit_error(json_path: Optional[str], message: str, code: int, out) -> None:
    record = {"error": message, "exit_code": code}
    text = json.dumps(record, indent=2)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text, file=out)


# -- decay ----------------------------------------------------------------------


def _reference_decay(phi: BivariatePolynomial) -> Optional[Fraction]:
    """1/h for the fitted phase: classified height, or 1 for a full-rank Hessian.

    The constant term only multiplies I by a unit factor, so it is dropped first.
    """
    phi = phi - BivariatePolynomial.constant(phi.coefficient(0, 0))
    try:
        kind = cls.classify_singularity(phi)
    except (ValueError, ArithmeticError):
        return None
    if kind.is_supported:
        return Fraction(1) / cls.height(kind)
    if kind.tag == cls.NONDEGENERATE_OR_RANK_POSITIVE and cls.rank_at_origin(phi) == 2:
        return Fraction(1)
    return None


def run_decay(args: argparse.Namespace, out=None) -> int:
    from . import oscint  # numpy loads for the numerics only

    out = out if out is not None else sys.stdout
    radius = oscint.DEFAULT_RADIUS if args.radius is None else args.radius
    cells = oscint.DEFAULT_SCAN_CELLS if args.grid is None else args.grid
    try:  # ParseError is a ValueError too
        phi = parse_polynomial(args.phi)
        amp = oscint.AmplitudeSpec(radius=radius)
        grid = oscint.dyadic_grid(args.lmin, args.lmax)
        if cells < 1:
            raise ValueError(f"--grid must be at least 1, got {cells}")
        for q in args.q:
            if not (math.isfinite(q) and q > 0):
                raise ValueError(f"--q exponents must be positive and finite, got {q:g}")
        if args.randol and args.m is None:
            raise ValueError("--randol requires --m")
    except ValueError as exc:
        _emit_error(None, str(exc), EXIT_PARSE, out)
        return EXIT_PARSE

    try:  # every lambda is planned (range, node budget, support) before any quadrature
        if args.randol:
            scan = oscint.randol_lq_scan(phi, amp, args.m, q_list=args.q or (2.0,), cells=cells, lambda_grid=grid)
        else:
            fit = oscint.fit_decay(phi, amp, grid)
    except cls.UnsupportedKindError as exc:
        _emit_error(None, str(exc), EXIT_OUT_OF_SCOPE, out)
        return EXIT_OUT_OF_SCOPE
    except (ValueError, oscint.QuadratureNotConverged) as exc:
        _emit_error(None, str(exc), EXIT_NUMERIC, out)
        return EXIT_NUMERIC

    if args.randol:
        if args.csv_path:
            oscint.write_scan_csv(args.csv_path, scan)
        swept = scan.lambdas
        print(f"lambda swept {swept[0]:g}..{swept[-1]:g} of {grid[0]:g}..{grid[-1]:g}", file=out)
        for q, (coarse, fine, ratio) in sorted(scan.q_report.items()):
            print(f"q={q:g}: L^q sum coarse={coarse:.6g} fine={fine:.6g} ratio={ratio:.4f}", file=out)
        return EXIT_OK

    if args.csv_path:
        oscint.write_fit_csv(args.csv_path, fit)
    for lam, message in fit.skipped:
        print(f"warning: lambda={lam:g}: {message}", file=out)
    ref = _reference_decay(phi)
    if ref is None:
        print(f"gamma_hat = {fit.gamma_hat:.4f} (no classified reference rate)", file=out)
    else:
        gap = abs(fit.gamma_hat - float(ref))
        print(
            f"gamma_hat = {fit.gamma_hat:.4f} vs 1/h = {rational_str(ref)}"
            f" ({float(ref):.4f}); gap = {gap:.4f}",
            file=out,
        )
    print(f"fit residual (rms) = {fit.residual:.2e}", file=out)
    return EXIT_OK


# -- corpus ---------------------------------------------------------------------


def run_corpus_command(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    results = corpus_mod.run_corpus(tag_filter=args.tag_filter, seed=args.seed)
    for res in results:
        print(res.line(), file=out)
    if not results:
        _emit_error(None, f"--filter {args.tag_filter!r} matches no corpus row", EXIT_PARSE, out)
        return EXIT_PARSE
    failures = [r for r in results if not r.ok]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed", file=out)
    return EXIT_OK if not failures else EXIT_MISMATCH


# -- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nphk",
        description="Newton-polygon invariants and sharp convolution exponents for bivariate phases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify a phase and report exact exponent data")
    pa.add_argument("--phi", required=True, help="phase polynomial in x, y")
    pa.add_argument("--p", default="", help="comma-separated rational p values in [1,2]")
    pa.add_argument("--json", dest="json_path", help="write the report JSON here")
    pa.add_argument("--svg", dest="svg_path", help="write a polygon SVG here")

    pd = sub.add_parser("decay", help="fit the oscillatory-integral decay exponent")
    pd.add_argument("--phi", required=True)
    pd.add_argument("--lmin", type=float, default=64.0)
    pd.add_argument("--lmax", type=float, default=16384.0)
    # None stands for oscint.DEFAULT_SCAN_CELLS and oscint.DEFAULT_RADIUS,
    # read in run_decay so that building the parser needs no numpy
    pd.add_argument("--grid", type=int, default=None, help="offset cells per axis for --randol")
    pd.add_argument("--radius", type=float, default=None)
    pd.add_argument("--randol", action="store_true", help="run the maximal-function L^q scan")
    pd.add_argument("--m", type=int, default=None, help="branch order for --randol")
    pd.add_argument("--q", default="", help="comma-separated q exponents for --randol")
    pd.add_argument("--csv", dest="csv_path", help="write samples CSV here")

    pc = sub.add_parser("corpus", help="run the built-in corpus and identity suites")
    pc.add_argument("--filter", dest="tag_filter", default=None, help="only rows whose kind matches")
    pc.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            args.p = tuple(parse_rational(tok) for tok in args.p.split(",") if tok.strip())
        elif args.command == "decay":
            args.q = tuple(parse_exponent(tok) for tok in args.q.split(",") if tok.strip())
    except ValueError as exc:
        _emit_error(getattr(args, "json_path", None), str(exc), EXIT_PARSE, sys.stdout)
        return EXIT_PARSE
    run = {"analyze": run_analyze, "decay": run_decay, "corpus": run_corpus_command}[args.command]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
