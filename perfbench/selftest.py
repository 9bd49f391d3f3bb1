#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Shows that ``construct --n 128 --seed 0`` gives 183 edges with the recorded
digests, that the planted LRC twin exits 4, that every output check rejects
a deliberately wrong output, and that traced spans nest as documented.
Exits 1 if anything fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import sparsehg as shg  # noqa: E402
from sparsehg import cli  # noqa: E402
from tracing import Tracer, layer_metrics, op_profile  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    call_cli,
    check_cbc,
    check_construct,
    check_lrc_optimal,
    check_lrc_twin,
    construct_argv,
    load_pool,
    lrc_specs,
)

GOOD_LRC = {"k": 11, "bound": 11, "d_actual": 11, "optimal": True, "free": True}
failures: list[str] = []


def expect(what: str, ok: bool) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def rewrite_hg(hg: Path, edges: list[tuple[int, ...]]) -> None:
    """Write edges back in canonical form and keep the certificate's yield in
    step, so only the check under test can catch the change."""
    n = int(hg.read_text().split()[0])
    hg.write_text(shg.serialize_hg(shg.Hypergraph(n, 3, tuple(sorted(edges)))))
    cert = hg.with_name(hg.stem + ".cert.json")
    payload = json.loads(cert.read_text())
    payload["yield"] = len(edges)
    cert.write_text(json.dumps(payload))


def construct_checks(workdir: Path) -> None:
    recorded = load_pool()["selftest"]["construct-n128-seed0"]
    hg = workdir / "n128.hg"
    rc, _ = call_cli(cli, construct_argv(128, 0, hg))
    h = shg.parse_hg(hg.read_text())
    expect("construct --n 128 --seed 0 gives 183 edges", rc == 0 and h.m == 183 == recorded["edges"])
    expect("its .hg and trace match the recorded digests", check_construct(shg, rc, hg, recorded["digests"]) == [])

    expect("exit code other than 0 is rejected", check_construct(shg, 4, hg, recorded["digests"]) != [])

    cert = hg.with_name("n128.cert.json")
    good_cert = cert.read_text()
    payload = json.loads(good_cert)
    payload["verdict"]["holds"] = False
    cert.write_text(json.dumps(payload))
    expect("certificate verdict that does not hold is rejected", check_construct(shg, 0, hg, None) != [])
    cert.write_text(good_cert)

    trace = hg.with_name("n128.trace.json")
    good_trace = trace.read_text()
    trace.write_text(good_trace.replace('"schema": 1', '"schema": 2'))
    expect("trace differing from the recorded digest is rejected",
           check_construct(shg, 0, hg, recorded["digests"]) != [])
    trace.write_text(good_trace)

    good_hg = hg.read_text()
    hg.write_text(good_hg.replace("128 183 3", "128 182 3", 1).rsplit("\n", 2)[0] + "\n")
    expect("dropped edge (certificate yield no longer matches) is rejected", check_construct(shg, 0, hg, None) != [])
    hg.write_text(good_hg)

    rewrite_hg(hg, list(h.edges[1:]))
    expect(".hg differing from the recorded digest is rejected",
           check_construct(shg, 0, hg, recorded["digests"]) != [])
    a, b, _ = h.edges[0]
    extra = next((a, b, x) for x in range(b + 1, 129) if (a, b, x) not in h.edges)
    rewrite_hg(hg, list(h.edges) + [extra])
    problems = check_construct(shg, 0, hg, None)
    expect("planted level-2 violator is rejected by the re-check",
           any("re-check" in p for p in problems))
    hg.write_text(good_hg)
    cert.write_text(good_cert)
    expect("restored outputs pass again", check_construct(shg, 0, hg, recorded["digests"]) == [])


def cbc_checks(workdir: Path) -> None:
    expect("cbc: both commands exiting 0 passes", check_cbc(0, 0, {"holds": True}) == [])
    expect("cbc: construct exiting 2 is rejected", check_cbc(2, None, None) != [])
    dup = workdir / "dup.hg"
    dup.write_text(shg.serialize_hg(shg.canonicalize([[1, 2, 3]] * 4, 6, multi=True)))
    rc, out = call_cli(cli, ["cbc", "verify", str(dup), "--e", "6", "--json"])
    expect("cbc: verify of four copies of one server exits 4 and is rejected",
           rc == 4 and check_cbc(0, rc, json.loads(out)) != [])


def lrc_checks(workdir: Path) -> None:
    for seed in range(20):
        spec, twin = lrc_specs(seed, 0)
        a1, a2 = (set(a) for a in spec["A"])
        t1, t2 = (set(a) for a in twin["A"])
        if not (len(a1) == len(a2) == 11 and len(a1 & a2) <= 1 and t1 == a1
                and len(t2) == 11 and len(t1 & t2) == 2):
            expect(f"lrc spec generator, seed {seed}", False)
            return
    expect("lrc specs: overlap <= 1, twins overlap exactly 2 (20 seeds)", True)
    expect("lrc specs are a function of the seed", lrc_specs(3, 1) == lrc_specs(3, 1) != lrc_specs(4, 1))

    _, twin = lrc_specs(0, 0)
    path = workdir / "twin.json"
    path.write_text(json.dumps(twin))
    t0 = time.perf_counter()
    rc, out = call_cli(cli, ["lrc", "verify", str(path), "--json"])
    seconds = time.perf_counter() - t0
    report = json.loads(out)
    expect(f"planted twin exits 4 in {seconds:.3f} s", rc == 4 and check_lrc_twin(rc, report, seconds) == [])
    expect("twin exiting 0 is rejected", check_lrc_twin(0, report, seconds) != [])
    expect("twin reported free is rejected", check_lrc_twin(4, {**report, "free": True}, seconds) != [])
    expect("twin slower than 0.1 s is rejected", check_lrc_twin(4, report, 0.5) != [])
    expect("optimal spec report (11, 11, 11) passes", check_lrc_optimal(0, GOOD_LRC) == [])
    expect("optimal spec exiting 4 is rejected", check_lrc_optimal(4, GOOD_LRC) != [])
    expect("optimal spec with d_actual 10 is rejected", check_lrc_optimal(0, {**GOOD_LRC, "d_actual": 10}) != [])
    expect("optimal spec not free is rejected", check_lrc_optimal(0, {**GOOD_LRC, "free": False}) != [])


def trace_checks(workdir: Path) -> None:
    original = shg.builder.alter
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        with tracer.span("cli.main"):
            rc, _ = call_cli(cli, construct_argv(128, 0, workdir / "traced.hg"))
    finally:
        tracer.op = None
        tracer.uninstall()
    expect("tracer restores every wrapped function", shg.builder.alter is original)
    spans = tracer.spans

    def chain(idx):
        names = []
        while idx is not None:
            names.append(spans[idx][0])
            idx = spans[idx][3]
        return names[::-1]

    nested = ["cli.main", "builder.construct", "builder.alter", "freeness.span_bounded_systems"]
    expect("spans nest cli.main > builder.construct > builder.alter > freeness.span_bounded_systems",
           rc == 0 and any(chain(i) == nested for i in range(len(spans))))
    metrics = layer_metrics(op_profile(spans, 0))
    expect("traced construct reports one attempt, 183/sampled kept, two certificates",
           metrics["builder.attempts"][0] == 1
           and abs(metrics["builder.keep_ratio"][0] * metrics["builder.sampled_edges"][0] - 183) < 1e-6
           and metrics["freeness.check_profile_calls"][0] == 2)
    expect("self time never exceeds inclusive time",
           metrics["builder.alter_self_s"][0] <= metrics["builder.alter_s"][0])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect("every BENCHMARK.json workload is defined",
           {w["name"] for w in contract["workloads"]} <= set(WORKLOADS))
    expect("per-layer metrics match BENCHMARK.json",
           sorted([*metrics, "trace.overhead_s", "yield_edges"]) == sorted(m["name"] for m in contract["per_layer"]))


def main() -> int:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_work"))
    try:
        construct_checks(workdir)
        cbc_checks(workdir)
        lrc_checks(workdir)
        trace_checks(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
