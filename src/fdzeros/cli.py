"""Command-line surface: every subcommand is a thin adapter over one library
operation, reading JSON from files or stdin and printing JSON/CSV.

Exit codes: 0 success, 1 failed verification suite, 2 parse/validation
error, 3 root-finding non-convergence.

The handlers of `tb`/`zeros`, `walsh`/`apolar`, `asymptotics` and `verify`
import their modules when they run, so `analyze` and the other commands
built on `operators` start without loading them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import FDZerosError, NonConvergence
from .operators import (
    _witness,
    analyze,
    apply_op,
    operator_from_json,
    verdict_to_json,
    witness_to_json,
)
from .poly import poly_from_json, poly_to_json
from .rootfind import DEFAULT_REAL_TOL, mesh, roots, rootset_to_json

__all__ = ["main"]


def _json_default(v):
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _emit(obj) -> None:
    # Python's float repr round-trips doubles exactly; a NaN or inf in the
    # output raises ValueError, which main reports as exit code 2.
    print(json.dumps(obj, default=_json_default, allow_nan=False))


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FDZerosError(f"{path}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise FDZerosError(f"{path}: {exc.strerror or exc}") from exc


def _finite_float(text: str) -> float:
    # argparse names the option in its error message and exits with code 2.
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return v


def _theta_of(args) -> float:
    # argparse requires one of the two options (_add_theta)
    if args.theta_pi is not None:
        return args.theta_pi * math.pi
    return args.theta


def _add_theta(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=_finite_float, help="angle in radians")
    group.add_argument("--theta-pi", type=_finite_float, metavar="Q",
                       help="angle as Q*pi (exact for degenerate angles)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdzeros",
        description="Finite-difference operators on polynomials and where "
                    "their zeros go.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("analyze", help="classify an operator")
    s.add_argument("operator", help="operator JSON file or -")
    s.add_argument("--tol", type=_finite_float, default=1e-8)

    s = subs.add_parser("apply", help="apply an operator to a polynomial")
    s.add_argument("operator")
    s.add_argument("poly")

    s = subs.add_parser("tb", help="apply T_{theta,h}")
    s.add_argument("poly")
    _add_theta(s)
    s.add_argument("--h", type=_finite_float, required=True)

    s = subs.add_parser("zeros", help="closed-form monomial-image zeros")
    s.add_argument("--n", type=int, required=True)
    _add_theta(s)
    s.add_argument("--h", type=_finite_float, default=1.0)

    s = subs.add_parser("mesh", help="minimal root gap of a real-rooted polynomial")
    s.add_argument("poly")
    s.add_argument("--tol", type=_finite_float, default=DEFAULT_REAL_TOL)

    s = subs.add_parser("walsh", help="Walsh convolution in a frame degree")
    s.add_argument("p")
    s.add_argument("q")
    s.add_argument("--frame", type=int, required=True)

    s = subs.add_parser("apolar", help="apolarity test in a frame degree")
    s.add_argument("p")
    s.add_argument("q")
    s.add_argument("--frame", type=int, required=True)
    s.add_argument("--tol", type=_finite_float, default=1e-8)

    s = subs.add_parser("asymptotics", help="large-h residual sweep as CSV")
    s.add_argument("poly")
    _add_theta(s)
    s.add_argument("--h-min", type=_finite_float, required=True)
    s.add_argument("--h-max", type=_finite_float, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--order", type=int, default=1, choices=(0, 1, 2))
    s.add_argument("--summary", action="store_true",
                   help="append a JSON summary block after the CSV")

    s = subs.add_parser("witness", help="search for a zero-location violation")
    s.add_argument("operator")
    s.add_argument("--max-degree", type=int, default=24)
    s.add_argument("--strip", type=_finite_float, default=None, metavar="B",
                   help="search against the strip |Im z| <= B instead")
    s.add_argument("--tol", type=_finite_float, default=1e-8)

    s = subs.add_parser("verify", help="run the seeded property suite")
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--trials", type=int, default=20)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main call and reused by every later one in the
    # process; a parser keeps no state between parse_args calls.
    return build_parser()


def _cmd_analyze(args) -> int:
    op = operator_from_json(_read_json(args.operator))
    _emit(verdict_to_json(analyze(op, tol=args.tol)))
    return 0


def _image_payload(image) -> dict:
    payload = {"image": poly_to_json(image)}
    if image.is_zero or image.degree == 0:
        payload["roots"] = {"roots": [], "residuals": []}
    else:
        payload["roots"] = rootset_to_json(roots(image))
    return payload


def _cmd_apply(args) -> int:
    op = operator_from_json(_read_json(args.operator))
    p = poly_from_json(_read_json(args.poly))
    _emit(_image_payload(apply_op(op, p)))
    return 0


def _cmd_tb(args) -> int:
    from .debruijn import DeBruijnOp, apply_tb
    p = poly_from_json(_read_json(args.poly))
    image = apply_tb(DeBruijnOp(_theta_of(args), args.h), p)
    _emit(_image_payload(image))
    return 0


def _cmd_zeros(args) -> int:
    from .debruijn import qn_zeros_report
    _emit(qn_zeros_report(args.n, _theta_of(args), args.h))
    return 0


def _cmd_mesh(args) -> int:
    p = poly_from_json(_read_json(args.poly))
    _emit(mesh(roots(p), args.tol))
    return 0


def _cmd_walsh(args) -> int:
    from .walsh import walsh_convolve
    p = poly_from_json(_read_json(args.p))
    q = poly_from_json(_read_json(args.q))
    _emit(poly_to_json(walsh_convolve(p, q, args.frame)))
    return 0


def _cmd_apolar(args) -> int:
    from .walsh import apolar_report
    p = poly_from_json(_read_json(args.p))
    q = poly_from_json(_read_json(args.q))
    _emit(apolar_report(p, q, args.frame, args.tol))
    return 0


def _cmd_asymptotics(args) -> int:
    from .asymptotics import report_summary, report_to_csv, residual_sweep
    p = poly_from_json(_read_json(args.poly))
    report = residual_sweep(p, _theta_of(args), args.h_min, args.h_max,
                            args.steps, args.order)
    report_to_csv(report, sys.stdout)
    if args.summary:
        _emit(report_summary(report))
    return 0


def _cmd_witness(args) -> int:
    op = operator_from_json(_read_json(args.operator))
    status, w = _witness(op, args.max_degree, args.strip, args.tol)
    _emit({"status": status, "witness": None if w is None else witness_to_json(w)})
    return 0


def _cmd_verify(args) -> int:
    from .harness import SuiteConfig, report_to_json, run_suite
    report = run_suite(SuiteConfig(seed=args.seed, trials=args.trials))
    _emit(report_to_json(report))
    return 0 if report.passed else 1


_DISPATCH = {
    "analyze": _cmd_analyze,
    "apply": _cmd_apply,
    "tb": _cmd_tb,
    "zeros": _cmd_zeros,
    "mesh": _cmd_mesh,
    "walsh": _cmd_walsh,
    "apolar": _cmd_apolar,
    "asymptotics": _cmd_asymptotics,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FDZerosError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
