"""Command-line front end: generation, sweeps, verification, report emission.

Exit codes: 0 ok, 1 invalid parameters, 2 IO/parse failure, 3 hard-assertion
failure.  All emitted JSON is key-sorted, so reruns are byte identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .core import Direction, InvalidParameterError, ParamTriple, Scale
from .entropy import (
    ad_regularity_check,
    conditional_entropy,
    covering_from_entropy,
    entropy,
    from_pointset,
    marstrand_average,
    multiscale_check,
    read_dmeas,
    theorem_main2_experiment,
)
from .incidence import build_tubes, upper_bound_report
from .pointsets import (
    ParseError,
    gen_four_corners,
    gen_grid_example,
    gen_segment,
    read_pset,
    write_pset,
)
from .projections import compute_E_s, covering_number_directions, esets_csv, project
from .records import ExperimentRecord, record_from_dict, records_to_csv
from .sharpness import per_slope_csv, run_sharpness

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_ASSERTION = 3

# Largest atom count 4^level that `adreg` runs the regularity check on.
REGULARITY_ATOM_CAP = 4**8

SWEEP_HELP = "direction grid size (default 4*2^log2delta, whatever the set's own n)"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _finite_float(text: str) -> float:
    """argparse type for a float option, or a fraction p/q such as 3/4:
    NaN, infinities, p/0 and values beyond the float range are usage errors."""
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    """argparse type for a comma-separated list of integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _record_exit(rec: ExperimentRecord) -> int:
    if rec.failed:
        names = [a.name for a in rec.assertions if a.status == "fail"]
        print(f"hard assertion failed: {', '.join(names)}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _load(read, path: str):
    with open(path, encoding="utf-8") as f:
        return read(f)


def _params(args) -> ParamTriple:
    return ParamTriple(Scale(args.log2delta), args.s, args.log2r)


def cmd_gen(args) -> int:
    if args.shape == "segment":
        if args.n is None:
            raise InvalidParameterError("segment needs --n")
        ps = gen_segment(Scale(args.n))
    elif args.shape == "fourcorners":
        if args.level is None:
            raise InvalidParameterError("fourcorners needs --level")
        n = args.n if args.n is not None else 2 * args.level
        ps = gen_four_corners(args.level, Scale(n))
    else:  # grid3
        if args.log2delta is None or args.s is None or args.log2r is None:
            raise InvalidParameterError("grid3 needs --log2delta, --s and --log2r")
        ps = gen_grid_example(_params(args))
    with open(args.out, "w") as f:
        write_pset(ps, f)
    print(f"PSET n={ps.scale.n} count={len(ps)} -> {args.out}")
    return EXIT_OK


def cmd_project(args) -> int:
    ps = _load(read_pset, args.infile)
    e = Direction(args.theta)
    prof = project(ps, e)
    vals = prof.values
    rec = ExperimentRecord(
        "project",
        params={"theta": e.theta, "width": ps.scale.delta},
        results={
            "covering_number": prof.covering_number,
            "n_values": len(vals),
            "value_min": float(vals[0]) if len(vals) else None,
            "value_max": float(vals[-1]) if len(vals) else None,
        },
    )
    _emit(rec.to_json(), args.out)
    return EXIT_OK


def cmd_esets(args) -> int:
    ps = _load(read_pset, args.infile)
    params = _params(args)
    es = compute_E_s(ps, params, sweep=args.sweep)
    n_cov = covering_number_directions(es, params.r)
    kaufman_target = min(
        params.delta_pow(-params.s) * math.sqrt(params.delta / params.r),
        1.0 / params.r,
    )
    rec = ExperimentRecord(
        "esets",
        params={
            "log2delta": params.a,
            "log2r": params.b,
            "s": str(params.s),
            "sweep": len(es.sweep_thetas),
        },
        results={
            "threshold": es.threshold,
            "n_members": len(es.members),
            "covering_at_r": n_cov,
            "target": kaufman_target,
            "ratio_to_target": (n_cov / kaufman_target) if kaufman_target else None,
            "member_arcs": es.member_arcs(),
        },
    )
    rec.soft("covering_vs_target", n_cov, kaufman_target)
    if args.csv:
        with open(args.csv, "w") as f:
            esets_csv(es, f)
    _emit(rec.to_json(), args.out)
    return _record_exit(rec)


def cmd_incidence(args) -> int:
    ps = _load(read_pset, args.infile)
    params = _params(args)
    es = compute_E_s(ps, params, sweep=args.sweep)
    tubes = build_tubes(ps, es)
    rec = upper_bound_report(ps, tubes, params)
    _emit(rec.to_json(), args.out)
    return _record_exit(rec)


def cmd_sharpness(args) -> int:
    params = _params(args)
    report = run_sharpness(params, project_full_set=not args.skip_full_set)
    if args.csv:
        with open(args.csv, "w") as f:
            per_slope_csv(report, f)
    _emit(report.record.to_json(), args.out)
    return _record_exit(report.record)


def cmd_entropy(args) -> int:
    mu = _load(read_dmeas, args.infile)
    if args.entropy_cmd == "H":
        m = args.m if args.m is not None else mu.level
        ev = entropy(mu, m)
        rec = ExperimentRecord(
            "entropy_value",
            params={"m": m, "n": mu.level, "d": mu.dim},
            results={"raw_nats": ev.raw, "normalized": ev.normalized},
        )
    elif args.entropy_cmd == "cef":
        direct = conditional_entropy(mu, args.fine, args.coarse)
        diff = entropy(mu, args.fine).raw - entropy(mu, args.coarse).raw
        rec = ExperimentRecord(
            "entropy_conditional",
            params={"fine": args.fine, "coarse": args.coarse},
            results={"direct": direct, "difference": diff},
        )
        rec.check("conditional_entropy_identity", abs(direct - diff) <= 1e-9, direct, diff)
    elif args.entropy_cmd == "multiscale":
        rec = multiscale_check(mu, Direction(args.theta), args.m)
    elif args.entropy_cmd == "marstrand":
        rec = marstrand_average(mu, args.m)
    else:  # cover
        rec = covering_from_entropy(mu, args.s)
    _emit(rec.to_json(), args.out)
    return _record_exit(rec)


def cmd_adreg(args) -> int:
    rec = theorem_main2_experiment(args.level, args.plist, args.s)
    if 4**args.level <= REGULARITY_ATOM_CAP:
        mu = from_pointset(gen_four_corners(args.level, Scale(2 * args.level)))
        adr = ad_regularity_check(mu)
        rec.results["A_lower"] = adr.A_lower
        rec.results["A_upper"] = adr.A_upper
        rec.results["A"] = adr.A
        rec.results["per_level_counts"] = {str(k): v for k, v in adr.per_level_counts.items()}
    else:
        rec.results["A"] = None
        rec.results["regularity_note"] = (
            f"skipped: 4^{args.level} atoms exceed the regularity check's limit of "
            f"{REGULARITY_ATOM_CAP}"
        )
    for row in rec.results["table"]:
        print(f"p={row['p']:>6}  average={row['average']:>14.4f}  "
              f"ratio_to_target={row['ratio_to_target']:.4f}", file=sys.stderr)
    _emit(rec.to_json(), args.out)
    return _record_exit(rec)


def cmd_report(args) -> int:
    records = []
    for path in args.inputs:
        with open(path, encoding="utf-8") as f:
            try:
                payload = json.load(f)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}: {e.msg}", e.lineno) from None
        try:
            records.append(record_from_dict(payload))
        except ValueError as e:
            raise ParseError(f"{path}: {e}", 1) from None
    if args.out and args.out != "-":
        with open(args.out, "w") as f:
            records_to_csv(records, f)
    else:
        records_to_csv(records, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="projlab",
        description="worst-case projections, incidences, and dyadic entropy at desk scale",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_triple(p):
        p.add_argument("--log2delta", type=int, required=True, help="delta = 2^-a")
        p.add_argument("--s", type=_fraction, required=True, help="rational in [1/2,1), e.g. 3/4")
        p.add_argument("--log2r", type=int, required=True, help="r = 2^-b")

    def add_common(p):
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    g = sub.add_parser("gen", help="generate a point set file")
    g.add_argument("--shape", choices=["segment", "fourcorners", "grid3"], required=True)
    g.add_argument("--n", type=int, help="lattice level (segment/fourcorners)")
    g.add_argument("--level", type=int, help="four-corners iteration depth")
    g.add_argument("--log2delta", type=int)
    g.add_argument("--s", type=_fraction)
    g.add_argument("--log2r", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    pr = sub.add_parser("project", help="project a point set along a direction")
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--theta", type=_finite_float, required=True, help="angle in [0,pi), radians")
    add_common(pr)
    pr.set_defaults(func=cmd_project)

    es = sub.add_parser("esets", help="sweep the small-projection direction set")
    es.add_argument("--in", dest="infile", required=True)
    add_triple(es)
    es.add_argument("--sweep", type=int, help=SWEEP_HELP)
    es.add_argument("--csv", help="also write the per-direction sweep table")
    add_common(es)
    es.set_defaults(func=cmd_esets)

    inc = sub.add_parser("incidence", help="tube family and incidence bounds")
    inc.add_argument("--in", dest="infile", required=True)
    add_triple(inc)
    inc.add_argument("--sweep", type=int, help=SWEEP_HELP)
    add_common(inc)
    inc.set_defaults(func=cmd_incidence)

    sh = sub.add_parser("sharpness", help="exact worst-case slope-family pipeline")
    add_triple(sh)
    sh.add_argument("--csv", help="per-slope rows: num,den,line_hits,proj_cardinality")
    sh.add_argument("--skip-full-set", action="store_true",
                    help="skip the full-set covering maximum covering_max_K")
    add_common(sh)
    sh.set_defaults(func=cmd_sharpness)

    en = sub.add_parser("entropy", help="dyadic measure toolkit")
    esub = en.add_subparsers(dest="entropy_cmd", required=True)
    eh = esub.add_parser("H")
    eh.add_argument("--m", type=int)
    ec = esub.add_parser("cef")
    ec.add_argument("--fine", type=int, required=True)
    ec.add_argument("--coarse", type=int, required=True)
    em = esub.add_parser("multiscale")
    em.add_argument("--m", type=int, required=True)
    em.add_argument("--theta", type=_finite_float, required=True)
    ema = esub.add_parser("marstrand")
    ema.add_argument("--m", type=int, required=True)
    ecov = esub.add_parser("cover")
    ecov.add_argument("--s", type=_finite_float, required=True)
    for sp in (eh, ec, em, ema, ecov):
        sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--out", default="-")
        sp.set_defaults(func=cmd_entropy)

    ad = sub.add_parser("adreg", help="four-corners direction-averaged covering numbers")
    ad.add_argument("--level", type=int, required=True)
    ad.add_argument("--plist", type=_int_list, required=True,
                    help="comma-separated direction counts")
    ad.add_argument("--s", type=_finite_float, required=True)
    add_common(ad)
    ad.set_defaults(func=cmd_adreg)

    rp = sub.add_parser("report", help="flatten JSON records to CSV")
    rp.add_argument("inputs", nargs="+")
    rp.add_argument("--out", default="-")
    rp.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as e:
        print(f"invalid parameters: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, UnicodeDecodeError) as e:  # inputs are read as UTF-8
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
