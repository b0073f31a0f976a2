"""Command-line entry point.

One executable, nine subcommands, reproducible artifacts: every run
echoes its fully resolved configuration, and identical configurations
produce byte-identical JSON.  Exit codes: 0 success, 2 validation
failure, 3 numeric-tolerance failure, 64 unknown subcommand, 65
malformed fan JSON.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .bounds import (_RESULTS, MAX_DECADES, DecadeLimitError,
                     verify_integral_bounds)
from .counting import count_N, fit_asymptotic, zeta_partial
from .fibration import (TorsorSpec, direct_zeta_partial,
                        fibration_predicted_constant, fibration_zeta_partial,
                        hirzebruch_fan)
from .fourier import poisson_check
from .heights import INF, exact_height, global_height, local_height, \
    valuation_profile
from .latticefan import (Fan, FanFormatError, FanValidationError, builtin_fan,
                         fan_from_json)
from .tauberian import PerronLine, TauberianError, builtin_oracle, \
    descend_k, descent_eta, predict
from .toric import archimedean_volume, leading_constant

SUBCOMMANDS = ("validate", "constants", "count", "height", "zeta",
               "poisson-check", "tauber", "fibration", "bounds-sweep")

BOUND_KINDS = ("plus", "minus", "alpha", "omega")


class CliError(Exception):
    """Input or invariant problem; maps to exit code 2."""

    exit_code = 2


class ToleranceFailure(CliError):
    """A computed quantity missed its tolerance; exit code 3."""

    exit_code = 3


class FanJsonFailure(CliError):
    """Unparseable or schema-violating fan JSON; exit code 65."""

    exit_code = 65


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on first use, never mutated,
    and every parse_args call fills a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="manin-toric",
        description="Heights, constants, and point counts on split toric "
                    "varieties over Q.")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="artifact path; stdout "
                       "when omitted")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--threads", type=int, default=None,
                       help="upper bound on worker processes (default 1); "
                       "every command runs in one")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="check fan axioms")
    p.add_argument("--fan", required=True)
    common(p)

    p = sub.add_parser("constants", help="alpha, tau, theta for a fan")
    p.add_argument("--fan", required=True)
    p.add_argument("--pmax", type=int, default=100000)
    common(p)

    p = sub.add_parser("count", help="exact N(B) against the prediction")
    p.add_argument("--fan", required=True)
    p.add_argument("--lambda", dest="lam", default="rho")
    p.add_argument("--bounds", required=True,
                   help="comma-separated height bounds, e.g. 1e2,1e3")
    p.add_argument("--pmax", type=int, default=100000)
    p.add_argument("--fit", default=None,
                   help="a,b to fit N(B) ~ B^a (c_0 + ... + c_{b-1} log^b)")
    common(p)

    p = sub.add_parser("height", help="canonical height of one point")
    p.add_argument("--fan", required=True)
    p.add_argument("--lambda", dest="lam", default="rho")
    p.add_argument("--x", required=True,
                   help="comma-separated rationals, e.g. 3/2,5")
    common(p)

    p = sub.add_parser("zeta", help="truncated height zeta sum")
    p.add_argument("--fan", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--B", type=float, required=True)
    common(p)

    p = sub.add_parser("poisson-check", help="zeta sum vs dual integral")
    p.add_argument("--fan", required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--T", type=float, default=2000.0)
    p.add_argument("--pmax", type=int, default=400)
    p.add_argument("--B0", type=float, default=2500.0)
    p.add_argument("--panel-width", type=float, default=4.0)
    common(p)

    p = sub.add_parser("tauber", help="Perron smoothing and descent")
    p.add_argument("--oracle", required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--T", type=float, default=300.0)
    p.add_argument("--tol", type=float, default=1e-3)
    common(p)

    p = sub.add_parser("fibration", help="torsor pipeline over P^1")
    p.add_argument("mode", nargs="?", choices=("zeta", "constants"),
                   default="zeta")
    p.add_argument("--n", type=int, required=True, help="twist degree")
    p.add_argument("--lambda-fiber", dest="lam_fiber", default="rho")
    p.add_argument("--alpha-base", dest="alpha_base", type=float, default=2.0)
    p.add_argument("--B", type=float, default=1000.0)
    p.add_argument("--pmax", type=int, default=100000)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    p = sub.add_parser("bounds-sweep", help="integral-bound grid sweeps")
    p.add_argument("--kind", choices=BOUND_KINDS + ("all",), default="all")
    p.add_argument("--base-decades", type=int, default=6)
    p.add_argument("--extend-decades", type=int, default=2)
    p.add_argument("--slack", type=float, default=1.05)
    common(p)

    return top


def _parse_fit(text: str):
    """--fit a,b: two integers, b >= 1."""
    try:
        a, b = (int(t) for t in text.split(","))
        if b >= 1:
            return a, b
    except ValueError:
        pass
    raise CliError(f"--fit takes two integers a,b with b >= 1, got {text!r}")


def _resolve_fan(spec: str) -> Fan:
    if spec.startswith("builtin:"):
        try:
            return builtin_fan(spec.split(":", 1)[1])
        except FanFormatError as e:
            raise CliError(str(e)) from None
    path = Path(spec)
    try:
        text = path.read_text()
    except OSError as e:
        raise CliError(f"cannot read fan file {spec!r}: {e}") from None
    try:
        return fan_from_json(text, name=path.stem)
    except FanFormatError as e:
        raise FanJsonFailure(f"malformed fan JSON in {spec!r}: {e}") from None


def _exact_lambda(text: str, n_rays: int):
    """Lambda as exact rationals: int entries where integral, else
    Fraction."""
    if text.strip().lower() == "rho":
        return (1,) * n_rays
    parts = _parse_rationals(text, "lambda")
    if len(parts) != n_rays:
        raise CliError(f"lambda needs {n_rays} entries, got {len(parts)}")
    return tuple(int(f) if f.denominator == 1 else f for f in parts)


def _float_lambda(lam):
    """Non-integral entries as floats: the form the float routes take and
    the artifacts' config records."""
    return tuple(v if isinstance(v, int) else float(v) for v in lam)


def _parse_lambda(text: str, n_rays: int):
    return _float_lambda(_exact_lambda(text, n_rays))


def _parse_rationals(text: str, what: str):
    try:
        return tuple(Fraction(t.strip()) for t in text.split(",") if t.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise CliError(f"cannot parse {what} {text!r}: {e}") from None


def _parse_floats(text: str, option: str):
    try:
        vals = tuple(float(t.strip()) for t in text.split(",") if t.strip())
    except ValueError as e:
        raise CliError(f"cannot parse {option} {text!r}: {e}") from None
    if not vals:
        raise CliError("empty numeric list")
    if not all(map(math.isfinite, vals)):
        raise CliError(f"{option} must be finite, got {text!r}")
    return vals


_COUNT_OPTIONS = ("pmax", "base_decades", "extend_decades")


def _check_options(args) -> None:
    """Float options must be finite; options that count, and --tol,
    nonnegative; --threads, when given, at least 1."""
    for dest, value in vars(args).items():
        option = "--" + dest.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise CliError(f"{option} must be finite, got {value}")
        if dest in _COUNT_OPTIONS + ("tol",) and value < 0:
            raise CliError(f"{option} must be nonnegative, got {value}")
    if args.threads is not None and args.threads < 1:
        raise CliError("thread count must be at least 1")


def _config(args, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "cmd"}
    cfg["subcommand"] = args.cmd
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# serialization


def _clean(obj):
    """Recursively coerce to JSON-safe, deterministic values."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": _clean(obj.real), "im": _clean(obj.imag)}
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return repr(obj)
        return obj
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def _to_csv(result: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = result.get("rows")
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        header = list(rows[0])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_clean(row.get(h)) for h in header])
    else:
        writer.writerow(["key", "value"])
        flat = _clean({k: v for k, v in sorted(result.items())
                       if k not in ("rows", "config")})
        for k, v in flat.items():
            writer.writerow([k, json.dumps(v, sort_keys=True)])
    return buf.getvalue()


def _emit(result: dict, args) -> None:
    if args.format == "csv":
        text = _to_csv(result)
    else:
        text = json.dumps(_clean(result), sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args):
    """Whether the fan could be built: every Fan is checked when it is."""
    try:
        fan, verdict = _resolve_fan(args.fan), {"status": "valid"}
    except FanValidationError as e:
        fan, verdict = e.fan, {"status": "invalid", "reason": str(e)}
    result = {"config": _config(args), **verdict,
              "fan": {"name": fan.name, "dim": fan.dim,
                      "n_rays": len(fan.rays),
                      "n_max_cones": len(fan.max_cones)}}
    return result, 2 if "reason" in verdict else 0


def _cmd_constants(args):
    fan = _resolve_fan(args.fan)
    lc = leading_constant(fan, pmax=args.pmax)
    result = {
        "config": _config(args),
        "fan": fan.name,
        "alpha": lc.alpha,
        "alpha_float": float(lc.alpha),
        "tau": {"value": lc.tamagawa.value, "lo": lc.tamagawa.lower,
                "hi": lc.tamagawa.upper, "pmax": lc.tamagawa.pmax,
                "tail_log_bound": lc.tamagawa.tail_log_bound},
        "theta": lc.theta,
        "theta_lo": lc.lower,
        "theta_hi": lc.upper,
        "rank": lc.b,
        "a": lc.a,
        "b": lc.b,
        "arch_volume": archimedean_volume(fan),
    }
    return result, 0


def _cmd_count(args):
    fan = _resolve_fan(args.fan)
    # counting scales lambda to integers, so it needs the exact rationals
    lam = _exact_lambda(args.lam, len(fan.rays))
    bounds = sorted(_parse_floats(args.bounds, "--bounds"))
    fit = None if args.fit is None else _parse_fit(args.fit)
    if fit is not None and len(bounds) < fit[1] + 1:
        raise CliError(f"--fit {args.fit} needs at least {fit[1] + 1} "
                       f"bounds, got {len(bounds)}")
    report = count_N(fan, lam, bounds, pmax=args.pmax)
    result = {
        "config": _config(args, threads=args.threads or 1,
                          lam=list(_float_lambda(lam))),
        "fan": fan.name,
        "rows": list(report.rows()),
    }
    if report.constant is not None:
        result["theta"] = report.constant.theta
        result["a"] = report.constant.a
        result["b"] = report.constant.b
    if fit is not None:
        fa, fb = fit
        result["fit"] = {"a": fa, "b": fb,
                         "coefficients": fit_asymptotic(report, fa, fb)}
    return result, 0


def _cmd_height(args):
    fan = _resolve_fan(args.fan)
    lam = _parse_lambda(args.lam, len(fan.rays))
    xs = _parse_rationals(args.x, "point")
    if len(xs) != fan.dim:
        raise CliError(f"point needs {fan.dim} coordinates, got {len(xs)}")
    if any(x == 0 for x in xs):
        raise CliError("height wants a torus point: no zero coordinates")
    prof = valuation_profile(xs)
    places = [{"place": "inf",
               "factor": local_height(fan, lam, INF, prof)}]
    for p in prof.primes:
        places.append({"place": p, "factor": local_height(fan, lam, p, prof)})
    result = {
        "config": _config(args, lam=list(lam)),
        "fan": fan.name,
        "x": [str(x) for x in xs],
        "height": global_height(fan, lam, xs),
        "rows": places,
    }
    if all(isinstance(v, int) for v in lam):
        result["height_exact"] = exact_height(fan, lam, prof)
    return result, 0


def _cmd_zeta(args):
    fan = _resolve_fan(args.fan)
    lam = _parse_lambda(args.lam, len(fan.rays))
    zp = zeta_partial(fan, lam, args.B)
    result = {
        "config": _config(args, lam=list(lam)),
        "fan": fan.name,
        "value_re": zp.value.real,
        "value_im": zp.value.imag,
        "n_points": zp.n_points,
        "B": zp.B,
        "tail_estimate": zp.tail_estimate,
    }
    return result, 0


def _cmd_poisson(args):
    fan = _resolve_fan(args.fan)
    lam = None if args.lam is None else _parse_lambda(args.lam,
                                                      len(fan.rays))
    report = poisson_check(fan, lam=lam, T=args.T, pmax=args.pmax,
                           B0=args.B0, panel_width=args.panel_width)
    ok = report.rel_error <= args.tol
    result = {
        "config": _config(args,
                          lam=None if lam is None else list(lam)),
        "fan": report.fan_name,
        "lambda_used": list(report.lam),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "rel_error": report.rel_error,
        "imag_residual": report.imag_residual,
        "tail_correction": report.tail_correction,
        "T": report.T,
        "pmax": report.pmax,
        "B_grid": list(report.B_grid),
        "status": "ok" if ok else "tolerance-exceeded",
    }
    if not ok:
        sys.stderr.write(
            f"tolerance failure: rel_error = {report.rel_error!r} exceeds "
            f"tol = {args.tol!r} by {report.rel_error - args.tol!r}\n")
    return result, 0 if ok else 3


def _cmd_tauber(args):
    oracle = builtin_oracle(args.oracle)
    pole = oracle.pole
    if pole is None:
        raise CliError(f"oracle {oracle.name!r} has no pole to predict from")
    X, k = args.X, args.k
    # the descent window refuses a small X, the line a bad k or T and a
    # rule over the node limit at the window's largest X, and the direct
    # sums an oversized X, all before any sum is taken
    eta = descent_eta(X)
    line = PerronLine(oracle, pole, k, T=args.T, tol=args.tol)
    line.check_rule(X * (1 + eta))
    direct_km1, N = oracle.phi_direct(X, (k - 1, 0))
    try:
        # the line keeps phi_k(X), which the descent samples again
        phi_k = line(X)
        lo, hi = descend_k(line, k, X, eta)
    except TauberianError as e:
        raise ToleranceFailure(str(e)) from None
    pred = predict(pole, X)
    inside = lo <= direct_km1 <= hi
    result = {
        "config": _config(args),
        "oracle": oracle.name,
        "phi_k": phi_k,
        "brackets": {"lower": lo, "upper": hi, "target": direct_km1,
                     "contains_target": inside},
        "N": N,
        "predict": pred,
        "residual": N - pred,
        "status": "ok" if inside else "bracket-miss",
    }
    if not inside:
        gap = lo - direct_km1 if direct_km1 < lo else direct_km1 - hi
        sys.stderr.write(
            f"bracket-miss: target = {direct_km1!r} lies outside lower = "
            f"{lo!r}, upper = {hi!r} by {gap!r}\n")
    return result, 0 if inside else 3


def _fibration_zeta(args):
    mu = _parse_lambda(args.lam_fiber, 2)
    fz = fibration_zeta_partial(TorsorSpec(args.n), mu, args.alpha_base,
                                args.B)
    rows = [{"b0": b0, "b1": b1, "H1": h1, "points": cnt, "sum": s}
            for b0, b1, h1, cnt, s in fz.base_rows]
    result = {
        "config": _config(args),
        "twist": fz.twist,
        "lam_fiber": list(fz.lam_fiber),
        "alpha_base": fz.alpha_base,
        "B": fz.B,
        "value": fz.value,
        "n_points": fz.n_points,
        "base_count": fz.base_count,
        "tail_estimate": fz.tail_estimate,
        "rows": rows,
    }
    # the cross-check against the direct Hirzebruch enumeration needs
    # the matched divisor class: integral exponents, even base weight
    # split across the two base rays, and enough base weight to absorb
    # the twist
    mu_t = fz.lam_fiber
    a = fz.alpha_base
    matched = (args.n >= 0 and a == int(a) and int(a) % 2 == 0
               and all(float(m).is_integer() for m in mu_t)
               and a >= args.n * float(mu_t[0]))
    if matched:
        half = int(a) // 2
        lam_direct = (half, int(mu_t[0]), half, int(mu_t[1]))
        height_counts, value, n_pts = direct_zeta_partial(
            hirzebruch_fan(args.n), lam_direct, args.B)
        rel = (abs(fz.value - value) / abs(value)) if value else 0.0
        same_multiset = fz.height_counts == height_counts
        failures = []
        if not rel <= args.tol:
            failures.append(f"rel_error = {rel!r} exceeds tol = "
                            f"{args.tol!r} by {rel - args.tol!r}")
        if not same_multiset:
            failures.append(f"multiset_equal is false: {fz.n_points} "
                            f"fibration points against {n_pts} direct")
        result["cross_check"] = {
            "performed": True,
            "lam_direct": list(lam_direct),
            "direct_value": value,
            "direct_points": n_pts,
            "rel_error": rel,
            "multiset_equal": same_multiset,
            "status": "mismatch" if failures else "ok",
        }
        return result, _mismatch_code(failures)
    result["cross_check"] = {
        "performed": False,
        "status": "skipped",
        "reason": "no matched integral class for this twist/exponents",
    }
    return result, 0


def _fibration_constants(args):
    if args.n < 0:
        raise CliError("constants mode compares against the direct "
                       "Hirzebruch pipeline and needs n >= 0")
    fc = fibration_predicted_constant(TorsorSpec(args.n), pmax=args.pmax)
    lc = leading_constant(hirzebruch_fan(args.n), pmax=args.pmax)
    alpha_equal = fc.alpha == lc.alpha
    overlap = max(fc.lower, lc.lower) <= min(fc.upper, lc.upper)
    failures = []
    if not alpha_equal:
        failures.append(f"alpha_equal is false: fibration alpha = "
                        f"{fc.alpha} against direct alpha = {lc.alpha}")
    if not overlap:
        failures.append(f"tau_intervals_overlap is false: fibration "
                        f"[{fc.lower!r}, {fc.upper!r}] against direct "
                        f"[{lc.lower!r}, {lc.upper!r}]")
    result = {
        "config": _config(args),
        "twist": args.n,
        "fibration": {"alpha": fc.alpha, "theta": fc.theta,
                      "theta_lo": fc.lower, "theta_hi": fc.upper,
                      "a": fc.a, "b": fc.b},
        "direct": {"alpha": lc.alpha, "theta": lc.theta,
                   "theta_lo": lc.lower, "theta_hi": lc.upper,
                   "a": lc.a, "b": lc.b},
        "alpha_equal": alpha_equal,
        "tau_intervals_overlap": overlap,
        "status": "mismatch" if failures else "ok",
    }
    return result, _mismatch_code(failures)


def _mismatch_code(failures) -> int:
    """Exit code of a cross-check: 0 when nothing failed, else 3 after
    one stderr line naming each failed quantity."""
    if not failures:
        return 0
    sys.stderr.write("mismatch: " + "; ".join(failures) + "\n")
    return 3


def _cmd_fibration(args):
    if args.mode == "constants":
        return _fibration_constants(args)
    return _fibration_zeta(args)


def _sweep_failure(rep, slack) -> str:
    """The stderr line of a bounds-sweep kind that did not pass: the
    row of a non-finite ratio, or by how much the extended supremum
    exceeds its allowance."""
    row = rep.worst
    if row is not None and not math.isfinite(row["ratio"]):
        where = ", ".join(f"{k} = {v!r}" for k, v in row.items()
                          if k not in _RESULTS)
        return f"divergent: {rep.kind} ratio = {row['ratio']!r} at {where}"
    allowed = slack * rep.sup_base
    return (f"unstable: {rep.kind} sup_extended = {rep.sup_extended!r} "
            f"exceeds slack * sup_base = {allowed!r} by "
            f"{rep.sup_extended - allowed!r}")


def _cmd_bounds_sweep(args):
    if not args.slack > 0:
        raise CliError(f"--slack must be positive, got {args.slack}")
    kinds = BOUND_KINDS if args.kind == "all" else (args.kind,)
    rows = []
    failures = []
    for kind in kinds:
        try:
            rep = verify_integral_bounds(
                kind, base_decades=args.base_decades,
                extend_decades=args.extend_decades,
                stability_slack=args.slack)
        except DecadeLimitError:
            raise CliError(
                f"--base-decades {args.base_decades} plus --extend-decades "
                f"{args.extend_decades} is "
                f"{args.base_decades + args.extend_decades} decades, over "
                f"the limit of {MAX_DECADES}, past which the grid leaves "
                f"the float range") from None
        rows.append({"kind": kind, "sup_base": rep.sup_base,
                     "sup_extended": rep.sup_extended,
                     "stable": rep.stable, "passed": rep.passed,
                     "n_rows": len(rep.rows)})
        if not rep.passed:
            failures.append(_sweep_failure(rep, args.slack))
    for line in failures:
        sys.stderr.write(line + "\n")
    result = {
        "config": _config(args),
        "rows": rows,
        "status": "unstable-or-divergent" if failures else "ok",
    }
    return result, 3 if failures else 0


_DISPATCH = {
    "validate": _cmd_validate,
    "constants": _cmd_constants,
    "count": _cmd_count,
    "height": _cmd_height,
    "zeta": _cmd_zeta,
    "poisson-check": _cmd_poisson,
    "tauber": _cmd_tauber,
    "fibration": _cmd_fibration,
    "bounds-sweep": _cmd_bounds_sweep,
}


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help"):
        _build_parser().print_help()
        return 0
    if not argv or argv[0] not in SUBCOMMANDS:
        got = argv[0] if argv else "(none)"
        sys.stderr.write(f"unknown subcommand {got!r}; expected one of "
                         f"{', '.join(SUBCOMMANDS)}\n")
        return 64
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        _check_options(args)
        result, code = _DISPATCH[args.cmd](args)
    except ToleranceFailure as e:
        sys.stderr.write(f"tolerance failure: {e}\n")
        return e.exit_code
    except CliError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    _emit(result, args)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
