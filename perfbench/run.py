#!/usr/bin/env python3
"""sparsehg benchmark: one workload, end to end or traced by layer.

    python3 perfbench/run.py --workload cbc-e6 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; sparsehg is imported from ``src/``.
The workload runs in this single process, through ``sparsehg.cli.main``.
Operations repeat until ``--seconds`` have passed (at least one), each on
the next input drawn from the workload seed, and each is checked after its
timed region.  A failed check or an exception counts as a failed operation.

``--trace 0`` reports the end-to-end metrics: ``op_s`` (median wall seconds
per operation), ``setup_s`` and ``peak_rss_mib``.  A set-up is the cold
import of sparsehg (numpy and the standard modules it pulls in included)
plus generation of the first input, up to the first timed operation.
``setup_s`` is the median of this process's own set-up and of set-ups
repeated in fresh interpreters, half before the first operation and half
after the last, so that they sample the whole run; each interpreter is
started and waited for one at a time, and its start-up is not counted.
``fail_ratio`` and ``yield_edges`` are printed too.  ``--trace 1`` runs every
input twice, untraced and then traced, and reports the per-layer metrics of
the traced runs plus ``trace.overhead_s`` (traced minus untraced wall time).

The last line of standard output is the result as JSON.  A record of the
run (metadata, every operation, and the spans of a traced run) is written
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import PRIVATE_NOTE, Tracer, layer_metrics, op_profile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8  # fresh-interpreter set-ups, half before and half after the operations


def no_span(name):
    return contextlib.nullcontext()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata(loadavg: str) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": loadavg,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "sparsehg").rglob("*.py"))),
    }


def setup(workload, seed: int, workdir: Path):
    """Import sparsehg and generate the first operation's input; return
    (seconds, sparsehg, sparsehg.cli, first input).  Cold only in a process
    that has not imported sparsehg or numpy yet."""
    t0 = time.perf_counter()
    import sparsehg
    import sparsehg.cli

    workload.prepare(seed, workdir)
    first = workload.make_input(0)
    return time.perf_counter() - t0, sparsehg, sparsehg.cli, first


def probe(name: str, seed: int, workdir: str) -> float:
    """One cold set-up; run in a fresh interpreter by ``setup_probes``."""
    sys.path.insert(0, str(SRC))
    return setup(WORKLOADS[name](), seed, Path(workdir))[0]


def setup_probes(name: str, seed: int, workdir: Path, indices: range) -> list[float]:
    times = []
    for i in indices:
        probe_dir = workdir / f"setup-probe-{i}"
        probe_dir.mkdir()
        code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; print(run.probe({name!r}, {seed}, {str(probe_dir)!r}))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_op(workload, shg, cli, inp, index: int, tracer: Tracer | None):
    """Run and time one operation, traced when a tracer is given, then check
    it untraced and outside the timed region.  Returns (seconds, checked or
    None, problems)."""
    span = no_span
    if tracer is not None:
        tracer.install()
        tracer.op, span = index, tracer.span
    t0 = time.perf_counter()
    try:
        produced, error = workload.run_op(cli, inp, "" if tracer is None else "-traced", span), None
    except Exception:
        produced, error = None, traceback.format_exc()
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
    if error is not None:
        return seconds, None, [error]
    try:
        checked = workload.check(shg, inp, produced)
    except Exception:
        return seconds, None, [traceback.format_exc()]
    return seconds, checked, checked.problems


def measure(args, workload, workdir: Path) -> dict:
    setup_seconds, shg, cli, first = setup(workload, args.seed, workdir)
    setups = [setup_seconds]
    half = SETUP_PROBES // 2
    if not args.trace:
        setups += setup_probes(args.workload, args.seed, workdir, range(half))

    tracer = Tracer() if args.trace else None
    ops = []
    start = time.perf_counter()
    index = 0
    while True:
        inp = first if index == 0 else workload.make_input(index)
        seconds, checked, problems = timed_op(workload, shg, cli, inp, index, None)
        op = {
            "index": index,
            "input": checked.label if checked else None,
            "seconds": seconds,
            "problems": problems,
            "yield_edges": checked.yield_edges if checked else None,
        }
        if tracer is not None:
            traced, _, traced_problems = timed_op(workload, shg, cli, inp, index, tracer)
            op.update(traced_seconds=traced, traced_problems=traced_problems)
        ops.append(op)
        index += 1
        if time.perf_counter() - start >= args.seconds:
            break
    if not args.trace:
        setups += setup_probes(args.workload, args.seed, workdir, range(half, SETUP_PROBES))
    return {"setups": setups, "ops": ops, "spans": tracer.spans if tracer else None}


def summarize(args, run: dict) -> tuple[dict, int, int, list[str]]:
    """Metrics (name -> {value, unit}), attempted, failed and report lines."""
    ops = run["ops"]
    attempted = len(ops) * (2 if args.trace else 1)
    failed = sum(bool(op["problems"]) for op in ops) + sum(bool(op.get("traced_problems")) for op in ops)
    yields = [op["yield_edges"] for op in ops if op["yield_edges"] is not None]
    if args.trace:
        per_op = [layer_metrics(op_profile(run["spans"], op["index"])) for op in ops]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in per_op), "unit": unit}
            for name, (_, unit) in per_op[0].items()
        }
        overhead = [op["traced_seconds"] - op["seconds"] for op in ops]
        metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
        metrics["yield_edges"] = {"value": statistics.median(yields) if yields else 0, "unit": "count"}
        lines = [f"note: {PRIVATE_NOTE}"]
    else:
        metrics = {
            "op_s": {"value": statistics.median(op["seconds"] for op in ops), "unit": "s"},
            "setup_s": {"value": statistics.median(run["setups"]), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
        lines = [
            f"fail_ratio {failed / attempted} ratio ({failed} of {attempted} operations failed)",
            "yield_edges " + (f"{statistics.median(yields)} count" if yields else "n/a (no hypergraph output)"),
        ]
    lines = [f"{name} {m['value']} {m['unit']}" for name, m in metrics.items()] + lines
    for op in ops:
        for problem in op["problems"] + op.get("traced_problems", []):
            lines.append(f"FAILED op {op['index']} ({op['input']}): {problem.strip()}")
    return metrics, attempted, failed, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loadavg = Path("/proc/loadavg").read_text().strip() if Path("/proc/loadavg").is_file() else None
    if not (SRC / "sparsehg" / "__init__.py").is_file():
        print(f"error: no sparsehg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        run = measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, lines = summarize(args, run)
    meta = metadata(loadavg)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "meta": meta, "metrics": metrics, "attempted": attempted, "failed": failed, **run}
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(run['ops'])} input(s), trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in lines:
        print(line)
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
