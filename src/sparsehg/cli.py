"""Command-line front end.

Subcommands: construct, verify, scaling, ipps, cbc, lrc.  All randomness
flows from --seed; reruns with identical flags produce byte-identical
files.  Flags can be set through environment variables with the SPARSEHG_
prefix (SPARSEHG_SEED, SPARSEHG_JOBS, SPARSEHG_BUDGET, SPARSEHG_JSON); an
explicit flag wins over the environment.

Exit codes: 0 success/holds, 1 parameter or input error, 2 retries or
yield exhausted, 3 budget or guard exceeded, 4 verification failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import batch, builder, freeness, ipps, lrc
from .errors import (
    BudgetExceeded,
    CertificationFailed,
    InsufficientYield,
    ParseError,
    RetriesExhausted,
    SparseHgError,
    TooLarge,
)
from .hypergraph import Hypergraph, parse_hg, serialize_hg

ENV_PREFIX = "SPARSEHG_"


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise SparseHgError(f"bad {ENV_PREFIX}{name.upper()}={raw!r}")


def _env_flag(name: str) -> bool:
    raw = os.environ.get(ENV_PREFIX + name.upper(), "")
    return raw.lower() in ("1", "true", "yes", "on")


def _budget(args, fallback: int = 10**6) -> int:
    return args.budget if args.budget is not None else fallback


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (RetriesExhausted, InsufficientYield)):
        return 2
    if isinstance(exc, (BudgetExceeded, TooLarge)):
        return 3
    if isinstance(exc, CertificationFailed):
        return 4
    return 1


def _emit(report: dict, as_json: bool, lines: list[str]):
    """Print either the JSON report or the prepared human lines."""
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _read_hg(path: str) -> Hypergraph:
    try:
        with open(path) as fh:
            return parse_hg(fh.read())
    except OSError as exc:
        raise SparseHgError(f"cannot read {path}: {exc.strerror}") from exc


def _params_report(params: builder.ConstructionParams) -> dict:
    return {
        "r": params.r,
        "e": params.e,
        "v": params.v,
        "n": params.n,
        "epsilon": str(params.epsilon),
        "p": params.p,
        "f": {str(i): c for i, c in sorted(params.f.items())},
        "extra_targets": [list(t) for t in params.extra_targets],
        "seed": params.seed,
        "max_retries": params.max_retries,
        "min_yield": params.min_yield,
    }


# --- construct ---------------------------------------------------------


def run_construct(args) -> int:
    extra = tuple(args.extra or ())
    result = builder.construct(
        args.r,
        args.e,
        args.v,
        args.n,
        extra_targets=extra,
        seed=args.seed,
        max_retries=args.max_retries,
        min_yield=args.min_yield,
        min_expected_edges=args.min_expected_edges,
        budget=_budget(args),
    )
    h = result.hypergraph
    stem = args.out or f"construct_r{args.r}_e{args.e}_v{args.v}_n{args.n}_seed{args.seed}.hg"
    trace_path = args.trace or stem.removesuffix(".hg") + ".trace.json"
    cert_path = args.cert or stem.removesuffix(".hg") + ".cert.json"
    with open(stem, "w") as fh:
        fh.write(serialize_hg(h))
    _write_json(trace_path, {"schema": 1, **result.trace.to_report()})
    profile = freeness.ladder_profile(args.r, args.e, args.v)
    verdict = result.certificate
    cert = {
        "schema": 1,
        "params": _params_report(result.params),
        "profile": [[c.e, c.v] for c in profile.constraints],
        "verdict": verdict.to_report(),
        "yield": h.m,
    }
    _write_json(cert_path, cert)
    report = {"schema": 1, "output": stem, "trace": trace_path, "certificate": cert_path, **cert}
    _emit(
        report,
        args.json,
        [
            f"constructed {h.m} edges on {h.n} vertices (seed {result.params.seed})",
            f"wrote {stem}, {trace_path}, {cert_path}",
        ],
    )
    return 0 if verdict.holds else 4


# --- verify ------------------------------------------------------------


def run_verify(args) -> int:
    h = _read_hg(args.file)
    if args.berge is not None:
        cycle = freeness.berge_girth(h, args.berge, budget=_budget(args))
        if cycle is None:
            report = {"schema": 1, "mode": "berge", "t_max": args.berge, "holds": True, "girth": None}
            _emit(report, args.json, [f"no cycle of length <= {args.berge}: holds"])
            return 0
        report = {
            "schema": 1,
            "mode": "berge",
            "t_max": args.berge,
            "holds": False,
            "girth": cycle.length,
            "witness": {"vertices": list(cycle.vertices), "edges": list(cycle.edges)},
        }
        _emit(
            report,
            args.json,
            [f"cycle of length {cycle.length}: vertices {cycle.vertices}, edges {cycle.edges}"],
        )
        return 4
    if args.e is None or args.v is None:
        raise SparseHgError("verify needs --berge T, or --e and --v")
    if args.ladder:
        profile = freeness.ladder_profile(h.r, args.e, args.v)
    else:
        profile = freeness.ConstraintProfile(
            (freeness.FreenessConstraint(args.e, args.v),), tag="custom"
        )
    verdict = freeness.check_profile(h, profile, budget=_budget(args))
    report = {
        "schema": 1,
        "mode": "profile",
        "profile": [[c.e, c.v] for c in profile.constraints],
        **verdict.to_report(),
    }
    lines = [f"profile {[(c.e, c.v) for c in profile.constraints]}: " + ("holds" if verdict.holds else f"violated by edges {verdict.witness} spanning {verdict.spanned}")]
    _emit(report, args.json, lines)
    return 0 if verdict.holds else 4


# --- scaling -----------------------------------------------------------


def _scaling_cell(job: tuple) -> dict:
    r, e, v, n, trial, seed, budget, timings = job
    t0 = time.perf_counter()
    try:
        result = builder.construct(r, e, v, n, seed=seed, budget=budget)
        cell_yield = result.hypergraph.m
        error = ""
    except SparseHgError as exc:
        cell_yield = None
        error = type(exc).__name__
    ms = round((time.perf_counter() - t0) * 1000)
    return {
        "n": n,
        "trial": trial,
        "seed": seed,
        "yield": cell_yield,
        "runtime_ms": ms if timings else None,
        "error": error,
    }


def run_scaling(args) -> int:
    ladder = args.n
    if len(set(ladder)) < 3:
        raise SparseHgError(f"need at least 3 distinct n values to fit a slope, got {ladder}")
    if args.trials < 1:
        raise SparseHgError("need trials >= 1")
    jobs = [
        (args.r, args.e, args.v, n, trial, args.seed + trial, _budget(args), args.timings)
        for n in sorted(set(ladder))
        for trial in range(args.trials)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            cells = list(pool.map(_scaling_cell, jobs))
    else:
        cells = [_scaling_cell(job) for job in jobs]
    cells.sort(key=lambda c: (c["n"], c["trial"]))

    target = Fraction(args.e * args.r - args.v, args.e - 1)
    medians = {}
    for n in sorted({c["n"] for c in cells}):
        yields = [c["yield"] for c in cells if c["n"] == n and c["yield"]]
        if yields:
            medians[n] = statistics.median(yields)
    slope = residual = None
    if len(medians) >= 3:
        xs = [math.log(n) for n in medians]
        ys = [math.log(y) for y in medians.values()]
        xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
        sxx = sum((x - xbar) ** 2 for x in xs)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
        intercept = ybar - slope * xbar
        residual = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["n", "trial", "seed", "yield", "runtime_ms"])
    for c in cells:
        writer.writerow(
            [
                c["n"],
                c["trial"],
                c["seed"],
                c["yield"] if c["yield"] is not None else "",
                c["runtime_ms"] if c["runtime_ms"] is not None else "",
            ]
        )
    if slope is not None:
        writer.writerow(
            [
                "summary",
                f"slope={slope:.6f}",
                f"target={float(target):.6f}",
                f"residual={residual:.6f}",
                f"points={len(medians)}",
            ]
        )
    else:
        writer.writerow(["summary", "slope=", f"target={float(target):.6f}", "residual=", f"points={len(medians)}"])
    with open(args.out, "w", newline="") as fh:
        fh.write(buf.getvalue())

    report = {
        "schema": 1,
        "slope": round(slope, 6) if slope is not None else None,
        "target": float(target),
        "residual": round(residual, 6) if residual is not None else None,
        "medians": {str(n): m for n, m in medians.items()},
        "csv": args.out,
    }
    _emit(
        report,
        args.json,
        [
            f"medians: {medians}",
            f"slope {slope:.4f} vs target {float(target):.4f}" if slope is not None else "no fit: fewer than 3 n values with yields",
            f"wrote {args.out}",
        ],
    )
    if slope is None:
        return 2
    return 0


# --- ipps / cbc / lrc --------------------------------------------------


def run_ipps_verify(args) -> int:
    h = _read_hg(args.file)
    verdict = ipps.check_ipps(h, args.t, force=args.force)
    report = {"schema": 1, **verdict.to_report()}
    lines = ["identifying-parents property holds" if verdict.holds else f"violated: {verdict.witness}"]
    _emit(report, args.json, lines)
    return 0 if verdict.holds else 4


def run_ipps_construct(args) -> int:
    h = ipps.construct_ipps(
        args.r,
        args.t,
        args.n,
        seed=args.seed,
        min_expected_edges=args.min_expected_edges,
        budget=_budget(args),
    )
    out = args.out or f"ipps_r{args.r}_t{args.t}_n{args.n}_seed{args.seed}.hg"
    with open(out, "w") as fh:
        fh.write(serialize_hg(h))
    e = ipps.link_e(args.t)
    report = {"schema": 1, "output": out, "m": h.m, "e": e, "v": e * args.r - args.r}
    _emit(report, args.json, [f"constructed {h.m} edges, wrote {out}"])
    return 0


def run_cbc_verify(args) -> int:
    h = _read_hg(args.file)
    verdict = batch.check_cbc(h, args.e, budget=_budget(args))
    cross = batch.check_sdr_all(h, args.e, force=True) if h.m <= 20 else None
    report = {"schema": 1, **verdict.to_report()}
    if cross is not None:
        report["sdr_agrees"] = cross.holds == verdict.holds
    lines = [
        "serves any %d requests" % args.e
        if verdict.holds
        else f"deficient subset {verdict.witness} spans {verdict.spanned}"
    ]
    _emit(report, args.json, lines)
    if cross is not None and cross.holds != verdict.holds:
        raise SparseHgError("distinct-representative and span checks disagree")
    return 0 if verdict.holds else 4


def run_cbc_construct(args) -> int:
    h = batch.construct_cbc(
        args.r,
        args.e,
        args.n,
        seed=args.seed,
        min_expected_edges=args.min_expected_edges,
        budget=_budget(args),
    )
    out = args.out or f"cbc_r{args.r}_e{args.e}_n{args.n}_seed{args.seed}.hg"
    with open(out, "w") as fh:
        fh.write(serialize_hg(h))
    report = {"schema": 1, "output": out, "m": h.m}
    _emit(report, args.json, [f"constructed {h.m} servers, wrote {out}"])
    return 0


def run_lrc_build(args) -> int:
    spec = lrc.construct_lrc(args.q, args.r, args.d, args.m, seed=args.seed, budget=_budget(args, 5 * 10**6))
    out = args.out or f"lrc_q{args.q}_r{args.r}_d{args.d}_m{args.m}_seed{args.seed}.json"
    with open(out, "w") as fh:
        fh.write(spec.to_json())
    if args.fqm:
        with open(args.fqm, "w") as fh:
            fh.write(lrc.serialize_fqm(lrc.parity_check(spec)))
    report = {"schema": 1, "output": out, "q": spec.q, "r": spec.r, "d": spec.d, "m": spec.m, "n": spec.n}
    _emit(report, args.json, [f"built {spec.m} blocks over F_{spec.q}, wrote {out}"])
    return 0


def run_lrc_verify(args) -> int:
    try:
        with open(args.file) as fh:
            spec = lrc.LrcSpec.from_json(fh.read())
    except OSError as exc:
        raise SparseHgError(f"cannot read {args.file}: {exc.strerror}") from exc
    report_obj = lrc.check_equivalence(spec, budget=_budget(args, 5 * 10**6))
    report = {"schema": 1, **report_obj.to_report()}
    holds = report_obj.optimal and report_obj.free
    lines = [
        f"k={report_obj.k}, bound={report_obj.bound}, distance={report_obj.d_actual}: "
        + ("optimal and span-free" if holds else "not optimal"),
    ]
    if not report_obj.agree:
        lines.append("warning: code side and combinatorial side disagree")
    for flag in report_obj.flags:
        lines.append(f"warning: {flag}")
    _emit(report, args.json, lines)
    return 0 if holds else 4


# --- parser ------------------------------------------------------------


def _extra_pair(text: str) -> tuple[int, int]:
    try:
        v_j, e_j = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected V:E, got {text!r}")
    return (v_j, e_j)


def _n_ladder(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=_env_default("seed", int, 0))
    common.add_argument("--budget", type=int, default=_env_default("budget", int, None))
    common.add_argument(
        "--json", action="store_true", default=_env_flag("json"), help="machine-readable output"
    )

    parser = argparse.ArgumentParser(
        prog="sparsehg",
        description="Sparse hypergraph construction, verification, and applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="build a certified span-free hypergraph")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--extra", type=_extra_pair, action="append", metavar="V:E")
    p.add_argument("--max-retries", type=int, default=16)
    p.add_argument("--min-yield", type=int, default=None)
    p.add_argument("--min-expected-edges", type=float, default=None)
    p.add_argument("--out")
    p.add_argument("--trace")
    p.add_argument("--cert")
    p.set_defaults(func=run_construct)

    p = sub.add_parser("verify", parents=[common], help="verify span or cycle freeness")
    p.add_argument("file")
    p.add_argument("--e", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--ladder", action="store_true", help="full per-level profile for (r, e, v)")
    p.add_argument("--berge", type=int, metavar="T", help="search cycles up to length T")
    p.set_defaults(func=run_verify)

    p = sub.add_parser("scaling", parents=[common], help="yield-vs-n experiment with slope fit")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=_n_ladder, required=True, metavar="N1,N2,...")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--jobs", type=int, default=_env_default("jobs", int, 1), help="worker processes")
    p.add_argument("--timings", action="store_true", help="record wall-clock runtime per cell")
    p.add_argument("--out", default="scaling.csv")
    p.set_defaults(func=run_scaling)

    p = sub.add_parser("ipps", help="parent-identifying set systems")
    ipps_sub = p.add_subparsers(dest="subcommand", required=True)
    p = ipps_sub.add_parser("verify", parents=[common])
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--force", action="store_true", help="override the brute-force guard")
    p.set_defaults(func=run_ipps_verify)
    p = ipps_sub.add_parser("construct", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-expected-edges", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=run_ipps_construct)

    p = sub.add_parser("cbc", help="combinatorial batch codes")
    cbc_sub = p.add_subparsers(dest="subcommand", required=True)
    p = cbc_sub.add_parser("verify", parents=[common])
    p.add_argument("file")
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(func=run_cbc_verify)
    p = cbc_sub.add_parser("construct", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-expected-edges", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=run_cbc_construct)

    p = sub.add_parser("lrc", help="locally recoverable codes")
    lrc_sub = p.add_subparsers(dest="subcommand", required=True)
    p = lrc_sub.add_parser("build", parents=[common])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--fqm", help="also export the parity-check matrix")
    p.set_defaults(func=run_lrc_build)
    p = lrc_sub.add_parser("verify", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=run_lrc_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
    except SparseHgError as exc:  # bad environment variable
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except SparseHgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
