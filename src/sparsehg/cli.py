"""Command-line front end.

Subcommands: construct, verify, scaling, ipps, cbc, lrc.  All randomness
flows from --seed; reruns with identical flags produce byte-identical
files.  Flags can be set through environment variables with the SPARSEHG_
prefix (SPARSEHG_SEED, SPARSEHG_JOBS, SPARSEHG_BUDGET, SPARSEHG_JSON), read
on every call; an explicit flag wins over the environment.

Exit codes: 0 success/holds, 1 usage error, 2 a scaling run with no fit,
4 verification failed; a library error exits with its class's `exit_code`.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import math
import os
import statistics
import sys
import time
from fractions import Fraction

from . import batch, builder, freeness, ipps, lrc
from .errors import BadRange, SparseHgError, TooLarge
from .hypergraph import parse_hg, serialize_hg

def _env_defaults() -> argparse.Namespace:
    """The SPARSEHG_* values as the namespace that parse_args fills, read
    on every call.  The parser gives these flags no default, so a flag on
    the command line wins; a bad value (not an integer, or for SPARSEHG_JSON
    not a yes or no) is a SparseHgError on every command."""
    ns = argparse.Namespace(seed=0, budget=None, jobs=1)
    for name in ("seed", "budget", "jobs"):
        var = "SPARSEHG_" + name.upper()
        if (raw := os.environ.get(var)) is not None:
            try:
                setattr(ns, name, int(raw))
            except ValueError:
                raise SparseHgError(f"bad {var}={raw!r}")
    raw = os.environ.get("SPARSEHG_JSON", "")
    ns.json = raw.lower() in ("1", "true", "yes", "on")
    if not ns.json and raw.lower() not in ("", "0", "false", "no", "off"):
        raise SparseHgError(f"bad SPARSEHG_JSON={raw!r}")
    return ns


def _budget(args, fallback: int = builder.DEFAULT_BUDGET) -> int:
    if args.budget is None:
        return fallback
    if args.budget < 0:
        raise BadRange(f"need budget >= 0, got {args.budget}")
    return args.budget


def _read_text(path: str) -> str:
    """The text of an input file; an unreadable or undecodable file is a
    SparseHgError (exit 1)."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise SparseHgError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SparseHgError(f"cannot decode {path}: {exc.reason} at byte {exc.start}") from exc


def _finish(code: int, as_json: bool, report: dict, lines: list[str], files: list[tuple[str, str]] | None = None, *, sort_keys: bool = True) -> int:
    """The one exit of every command: check every output path, write each
    (path, text) pair byte for byte (no newline translation), then print
    the JSON report (keys sorted unless sort_keys is False) or the human
    lines.  A path that is a directory, lies in a missing directory or
    names the same file as another output is a SparseHgError (exit 1)
    before any file is written, so the command leaves no files."""
    files, claimed = files or [], set()
    try:
        for path, _ in files:
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))  # its directory exists
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            real = os.path.realpath(path)
            if real in claimed:
                raise SparseHgError(f"two outputs would both be written to {path}")
            claimed.add(real)
        for path, text in files:
            with open(path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise SparseHgError(f"cannot write {path}: {exc.strerror}") from exc
    if as_json:
        print(json.dumps(report, sort_keys=sort_keys, indent=2))
    else:
        print(*lines, sep="\n")
    return code


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
    profile = freeness.ladder_profile(args.r, args.e, args.v)
    verdict = result.certificate
    cert = {
        "schema": 1,
        "params": _params_report(result.params),
        "profile": [[c.e, c.v] for c in profile.constraints],
        "verdict": verdict.to_report(),
        "yield": h.m,
    }
    report = {"schema": 1, "output": stem, "trace": trace_path, "certificate": cert_path, **cert}
    lines = [
        f"constructed {h.m} edges on {h.n} vertices (seed {result.params.seed})",
        f"wrote {stem}, {trace_path}, {cert_path}",
    ]
    files = [
        (stem, serialize_hg(h)),
        (trace_path, json.dumps({"schema": 1, **result.trace.to_report()}, sort_keys=True, indent=2) + "\n"),
        (cert_path, json.dumps(cert, sort_keys=True, indent=2) + "\n"),
    ]
    return _finish(0, args.json, report, lines, files)


# --- verify ------------------------------------------------------------


def run_verify(args) -> int:
    h = parse_hg(_read_text(args.file))
    if args.berge is not None:
        if (args.e, args.v, args.ladder) != (None, None, False):
            raise SparseHgError("verify --berge T takes no --e, --v or --ladder")
        cycle = freeness.berge_girth(h, args.berge, budget=_budget(args))
        if cycle is None:
            report = {"schema": 1, "mode": "berge", "t_max": args.berge, "holds": True, "girth": None}
            return _finish(0, args.json, report, [f"no cycle of length <= {args.berge}: holds"])
        report = {
            "schema": 1,
            "mode": "berge",
            "t_max": args.berge,
            "holds": False,
            "girth": cycle.length,
            "witness": {"vertices": list(cycle.vertices), "edges": list(cycle.edges)},
        }
        lines = [f"cycle of length {cycle.length}: vertices {cycle.vertices}, edges {cycle.edges}"]
        return _finish(4, args.json, report, lines)
    if args.e is None or args.v is None:
        raise SparseHgError("verify needs --berge T, or --e and --v")
    if args.ladder:
        profile = freeness.ladder_profile(h.r, args.e, args.v)
    else:
        profile = freeness.ConstraintProfile((freeness.FreenessConstraint(args.e, args.v),))
    verdict = freeness.check_profile(h, profile, budget=_budget(args))
    report = {
        "schema": 1,
        "mode": "profile",
        "profile": [[c.e, c.v] for c in profile.constraints],
        **verdict.to_report(),
    }
    lines = [f"profile {[(c.e, c.v) for c in profile.constraints]}: " + ("holds" if verdict.holds else f"violated by edges {verdict.witness} spanning {verdict.spanned}")]
    return _finish(0 if verdict.holds else 4, args.json, report, lines)


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
        raise BadRange(f"need at least 3 distinct n values to fit a slope, got {ladder}")
    if args.trials < 1:
        raise BadRange("need trials >= 1")
    if args.jobs < 1:
        raise BadRange("need jobs >= 1")
    # parameter errors are the run's, not one cell's: every cell would fail
    builder.plan(args.r, args.e, args.v, min(ladder), seed=args.seed)
    jobs = [
        (args.r, args.e, args.v, n, trial, args.seed + trial, _budget(args), args.timings)
        for n in sorted(set(ladder))
        for trial in range(args.trials)
    ]
    # both branches keep the (n, trial) order the jobs were built in
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing
        # a pool may start all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            cells = list(pool.map(_scaling_cell, jobs))
    else:
        cells = [_scaling_cell(job) for job in jobs]

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

    # keys in sorted order like every report, but the medians by ascending n
    report = {
        "csv": args.out,
        "medians": {str(n): m for n, m in medians.items()},
        "residual": round(residual, 6) if residual is not None else None,
        "schema": 1,
        "slope": round(slope, 6) if slope is not None else None,
        "target": float(target),
    }
    lines = [
        f"medians: {medians}",
        f"slope {slope:.4f} vs target {float(target):.4f}" if slope is not None else "no fit: fewer than 3 n values with yields",
        f"wrote {args.out}",
    ]
    return _finish(0 if slope is not None else 2, args.json, report, lines, [(args.out, buf.getvalue())], sort_keys=False)


# --- ipps / cbc / lrc --------------------------------------------------


def run_ipps_verify(args) -> int:
    h = parse_hg(_read_text(args.file))
    verdict = ipps.check_ipps(h, args.t, force=args.force)
    report = {"schema": 1, **verdict.to_report()}
    lines = ["identifying-parents property holds" if verdict.holds else f"violated: {verdict.witness}"]
    return _finish(0 if verdict.holds else 4, args.json, report, lines)


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
    e = ipps.link_e(args.t)
    report = {"schema": 1, "output": out, "m": h.m, "e": e, "v": e * args.r - args.r}
    return _finish(0, args.json, report, [f"constructed {h.m} edges, wrote {out}"], [(out, serialize_hg(h))])


def run_cbc_verify(args) -> int:
    h = parse_hg(_read_text(args.file))
    verdict = batch.check_cbc(h, args.e, budget=_budget(args))
    try:
        cross = batch.check_sdr_all(h, args.e)
    except TooLarge:
        cross = None  # beyond the matching check's guard: no cross-check
    if cross is not None and cross.holds != verdict.holds:
        raise SparseHgError("distinct-representative and span checks disagree")
    report = {"schema": 1, **verdict.to_report()}
    if cross is not None:
        report["sdr_agrees"] = True
    lines = [
        "serves any %d requests" % args.e
        if verdict.holds
        else f"deficient subset {verdict.witness} spans {verdict.spanned}"
    ]
    return _finish(0 if verdict.holds else 4, args.json, report, lines)


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
    report = {"schema": 1, "output": out, "m": h.m}
    return _finish(0, args.json, report, [f"constructed {h.m} items, wrote {out}"], [(out, serialize_hg(h))])


def run_lrc_build(args) -> int:
    spec = lrc.construct_lrc(args.q, args.r, args.d, args.m, seed=args.seed, budget=_budget(args, lrc.DEFAULT_BUDGET))
    out = args.out or f"lrc_q{args.q}_r{args.r}_d{args.d}_m{args.m}_seed{args.seed}.json"
    files = [(out, spec.to_json())]
    if args.fqm:
        files.append((args.fqm, lrc.serialize_fqm(lrc.parity_check(spec))))
    report = {"schema": 1, "output": out, "q": spec.q, "r": spec.r, "d": spec.d, "m": spec.m, "n": spec.n}
    return _finish(0, args.json, report, [f"built {spec.m} blocks over F_{spec.q}, wrote {out}"], files)


def run_lrc_verify(args) -> int:
    spec = lrc.LrcSpec.from_json(_read_text(args.file))
    report_obj = lrc.check_equivalence(spec, budget=_budget(args, lrc.DEFAULT_BUDGET))
    report = {"schema": 1, **report_obj.to_report()}
    holds = report_obj.optimal and report_obj.free
    lines = [
        f"k={report_obj.k}, bound={report_obj.bound}, distance={report_obj.d_actual}: "
        + ("optimal and span-free" if holds else "not optimal"),
    ]
    if not holds:
        witness = []
        if report_obj.columns is not None:
            witness.append(f"columns {list(report_obj.columns)} are dependent")
        if report_obj.blocks is not None:
            witness.append(f"blocks {list(report_obj.blocks)} span too few points")
        lines[0] += "; witness: " + ", ".join(witness)
    if not report_obj.agree:
        lines.append("warning: code side and combinatorial side disagree")
    for flag in report_obj.flags:
        lines.append(f"warning: {flag}")
    return _finish(0 if holds else 4, args.json, report, lines)


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
    # no defaults: main passes them in from _env_defaults, and a subcommand
    # would overwrite them with its own
    seed, budget, report = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    budget.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    report.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="machine-readable output")
    builds, checks = [seed, budget, report], [budget, report]

    parser = argparse.ArgumentParser(
        prog="sparsehg",
        description="Sparse hypergraph construction, verification, and applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=builds, help="build a certified span-free hypergraph")
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

    p = sub.add_parser("verify", parents=checks, help="verify span or cycle freeness")
    p.add_argument("file")
    p.add_argument("--e", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--ladder", action="store_true", help="full per-level profile for (r, e, v)")
    p.add_argument("--berge", type=int, metavar="T", help="search cycles up to length T")
    p.set_defaults(func=run_verify)

    p = sub.add_parser("scaling", parents=builds, help="yield-vs-n experiment with slope fit")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=_n_ladder, required=True, metavar="N1,N2,...")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--jobs", type=int, default=argparse.SUPPRESS, help="worker processes")
    p.add_argument("--timings", action="store_true", help="record wall-clock runtime per cell")
    p.add_argument("--out", default="scaling.csv")
    p.set_defaults(func=run_scaling)

    p = sub.add_parser("ipps", help="parent-identifying set systems")
    ipps_sub = p.add_subparsers(dest="subcommand", required=True)
    p = ipps_sub.add_parser("verify", parents=[report])
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--force", action="store_true", help="override the brute-force guard")
    p.set_defaults(func=run_ipps_verify)
    p = ipps_sub.add_parser("construct", parents=builds)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-expected-edges", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=run_ipps_construct)

    p = sub.add_parser("cbc", help="combinatorial batch codes")
    cbc_sub = p.add_subparsers(dest="subcommand", required=True)
    p = cbc_sub.add_parser("verify", parents=checks)
    p.add_argument("file")
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(func=run_cbc_verify)
    p = cbc_sub.add_parser("construct", parents=builds)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-expected-edges", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=run_cbc_construct)

    p = sub.add_parser("lrc", help="locally recoverable codes")
    lrc_sub = p.add_subparsers(dest="subcommand", required=True)
    p = lrc_sub.add_parser("build", parents=builds)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--fqm", help="also export the parity-check matrix")
    p.set_defaults(func=run_lrc_build)
    p = lrc_sub.add_parser("verify", parents=checks)
    p.add_argument("file")
    p.set_defaults(func=run_lrc_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: each build costs
    milliseconds and leaves cyclic garbage."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parser().parse_args(argv, _env_defaults())
        except SystemExit as exc:  # argparse exits 2 on usage errors; remap
            return 0 if exc.code in (0, None) else 1
        return args.func(args)
    except SparseHgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
