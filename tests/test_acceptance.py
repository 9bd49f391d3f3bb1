"""Top-level acceptance checks, one per shipped guarantee, each with its
stated tolerance and time limit.  A summary line per criterion is echoed
after the run; artifact-producing criteria register a regeneration recipe
that the final determinism check replays byte for byte."""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

import oracles
from conftest import ACCEPTANCE_LINES, random_edges, random_hypergraph
from sparsehg import canonicalize, freeness, ipps, lrc, parse_hg, serialize_hg
from sparsehg.batch import check_cbc, check_sdr_all
from sparsehg.cli import main
from sparsehg.hypergraph import Hypergraph, edge_mask


@pytest.fixture(scope="session")
def acc(tmp_path_factory):
    return {"dir": tmp_path_factory.mktemp("acceptance"), "generators": {}}


@pytest.mark.criterion(1, "span verifier agrees with exhaustive search")
def test_criterion_1_verifier_matches_exhaustive_search():
    t0 = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    for multi, count in ((False, 1000), (True, 200)):
        for _ in range(count):
            h = random_hypergraph(rng, multi=multi)
            e = rng.randint(2, 4)
            v = rng.randint(3, 3 * e)
            constraint = freeness.FreenessConstraint(e, v)
            assert freeness.check_free(h, constraint).holds == oracles.is_free(h.edges, e, v)
            checked += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    ACCEPTANCE_LINES.append(
        f"PASS criterion 1: span verifier agrees with exhaustive search on "
        f"{checked} graphs ({dt:.1f}s, limit 60s)"
    )


def _build_constructions(out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for seed in range(10):
        path = out / f"seed{seed}.hg"
        rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "128",
                   "--seed", str(seed), "--out", str(path)])
        assert rc == 0, f"seed {seed} exited {rc}"
        paths.append(path)
    return paths


@pytest.mark.criterion(2, "ten seeded constructions all certify span-free")
def test_criterion_2_ten_seeds_certify(acc):
    t0 = time.perf_counter()
    paths = _build_constructions(acc["dir"] / "c2")
    profile = freeness.ladder_profile(3, 3, 6)
    assert [(c.e, c.v) for c in profile.constraints] == [(2, 4), (3, 6)]
    yields = []
    for path in paths:
        h = parse_hg(path.read_text())
        assert h.m > 0, path.name
        assert freeness.check_profile(h, profile).holds, path.name
        yields.append(h.m)
    dt = time.perf_counter() - t0
    assert dt < 300.0
    acc["c2"] = paths
    acc["generators"]["c2"] = _build_constructions
    ACCEPTANCE_LINES.append(
        f"PASS criterion 2: 10/10 seeds at n=128 certified against "
        f"profile [(2,4), (3,6)], yields {min(yields)}..{max(yields)} "
        f"({dt:.1f}s, limit 5min)"
    )


def _run_scaling(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / "scaling.csv"
    rc = main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "64,128,256",
               "--trials", "5", "--seed", "0", "--out", str(path)])
    assert rc == 0
    return path


@pytest.mark.criterion(3, "fitted yield slope lies in [1.25, 1.75]")
def test_criterion_3_scaling_slope(acc):
    t0 = time.perf_counter()
    path = _run_scaling(acc["dir"] / "c3")
    summary = path.read_bytes().decode().strip().split("\r\n")[-1]
    assert summary.startswith("summary,")
    slope = float(summary.split(",")[1].removeprefix("slope="))
    assert 1.25 <= slope <= 1.75, summary
    dt = time.perf_counter() - t0
    assert dt < 1800.0
    acc["generators"]["c3"] = _run_scaling
    ACCEPTANCE_LINES.append(
        f"PASS criterion 3: slope {slope:.6f} in [1.25, 1.75] over "
        f"n in (64, 128, 256), 5 trials each ({dt:.1f}s, limit 30min)"
    )


@pytest.mark.criterion(4, "cycle search and span profile give matching verdicts")
def test_criterion_4_berge_duality(acc):
    rng = random.Random(404)
    checked = 0
    for _ in range(300):
        h = random_hypergraph(rng)
        t = rng.randint(2, 4)
        cycle = freeness.berge_girth(h, t)
        spans = freeness.check_profile(h, freeness.berge_profile(3, t))
        assert (cycle is None) == spans.holds, (h.edges, t)
        if cycle is not None:
            assert freeness.validate_berge_cycle(h, cycle)
        checked += 1
    assert "c2" in acc, "needs the criterion 2 construction outputs"
    for path in acc["c2"]:
        h = parse_hg(path.read_text())
        cycle = freeness.berge_girth(h, 3)
        spans = freeness.check_profile(h, freeness.berge_profile(3, 3))
        assert (cycle is None) == spans.holds, path.name
        checked += 1
    ACCEPTANCE_LINES.append(
        f"PASS criterion 4: cycle and span routes agree on {checked} inputs "
        f"(300 random + {checked - 300} constructed)"
    )


def _certified_free_graph(rng) -> Hypergraph:
    # sample then repair: delete the last edge of each violating 4-edge
    # system; families that dip below 4 edges are resampled, since the
    # covering argument needs at least e = 4 members
    while True:
        n = rng.randint(10, 15)
        m = rng.randint(4, 10)
        h = canonicalize(random_edges(rng, n, m), n)
        while True:
            verdict = freeness.check_free(h, freeness.FreenessConstraint(4, 9))
            if verdict.holds:
                break
            h = h.subhypergraph([i for i in range(h.m) if i != verdict.witness[-1]])
        if h.m >= 4:
            return h


def _build_ipps_graphs(out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(505)
    paths = []
    for i in range(50):
        path = out / f"free{i:02d}.hg"
        path.write_text(serialize_hg(_certified_free_graph(rng)))
        paths.append(path)
    planted = canonicalize([[1, 2, 4], [3, 5, 6], [1, 2, 7], [3, 8, 9]], 9)
    path = out / "planted.hg"
    path.write_text(serialize_hg(planted))
    paths.append(path)
    return paths


@pytest.mark.criterion(5, "span-free families identify parents; planted family rejected")
def test_criterion_5_ipps(acc):
    t0 = time.perf_counter()
    paths = _build_ipps_graphs(acc["dir"] / "c5")
    for path in paths[:-1]:
        h = parse_hg(path.read_text())
        assert h.n <= 15 and 4 <= h.m <= 10, path.name
        assert freeness.check_free(h, freeness.FreenessConstraint(4, 9)).holds, path.name
        assert ipps.check_ipps(h, 2).holds, path.name

    planted = parse_hg(paths[-1].read_text())
    verdict = ipps.check_ipps(planted, 2)
    assert not verdict.holds
    x, families = verdict.witness
    assert x == (1, 2, 3)
    fam_a, fam_b = families
    assert set(fam_a).isdisjoint(fam_b)
    for fam in families:
        covered = 0
        for k in fam:
            covered |= planted.masks[k]
        assert covered & edge_mask(x) == edge_mask(x)
    dt = time.perf_counter() - t0
    assert dt < 600.0
    acc["generators"]["c5"] = _build_ipps_graphs
    ACCEPTANCE_LINES.append(
        f"PASS criterion 5: 50 certified (4, 9)-span-free families identify "
        f"parents at t=2; planted family rejected with a disjoint cover pair "
        f"({dt:.1f}s, limit 10min)"
    )


@pytest.mark.criterion(6, "matching and span routes agree on batch service")
def test_criterion_6_cbc_dual_routes():
    rng = random.Random(606)
    violations = 0
    for _ in range(500):
        h = random_hypergraph(rng, n_max=10, multi=True)
        e = rng.randint(1, 6)
        by_span = check_cbc(h, e)
        by_matching = check_sdr_all(h, e, force=True)
        assert by_span.holds == by_matching.holds, (h.edges, e)
        if not by_matching.holds:
            deficient = by_matching.witness
            assert h.union_span(deficient) < len(deficient)
            violations += 1
    assert violations > 0  # the sweep must exercise both verdicts
    ACCEPTANCE_LINES.append(
        f"PASS criterion 6: both routes agree on 500 multigraphs "
        f"({violations} deficient, every witness covers fewer vertices "
        f"than its size)"
    )


def _build_lrc(out: Path) -> lrc.LrcSpec:
    out.mkdir(parents=True, exist_ok=True)
    spec = lrc.construct_lrc(23, 10, 11, 2, seed=0)
    (out / "lrc.json").write_text(spec.to_json())
    (out / "lrc.fqm").write_text(lrc.serialize_fqm(lrc.parity_check(spec)))
    return spec


@pytest.mark.criterion(7, "flagship code meets the distance bound; planted variant fails both sides")
def test_criterion_7_lrc(acc):
    t0 = time.perf_counter()
    spec = _build_lrc(acc["dir"] / "c7")
    report = lrc.check_equivalence(spec)
    assert report.optimal and report.free and report.agree
    assert (report.k, report.bound, report.d_actual) == (11, 11, 11)
    build_dt = time.perf_counter() - t0
    assert build_dt < 60.0

    t0 = time.perf_counter()
    planted = lrc.LrcSpec(
        q=23, r=10, d=11, a_list=(tuple(range(11)), tuple(range(9, 20)))
    )
    planted_report = lrc.check_equivalence(planted)
    assert not planted_report.optimal and not planted_report.free
    assert planted_report.agree
    assert planted_report.d_actual <= 10
    planted_dt = time.perf_counter() - t0
    assert planted_dt < 60.0
    acc["generators"]["c7"] = _build_lrc
    ACCEPTANCE_LINES.append(
        f"PASS criterion 7: [22, 11] code over F_23 reaches distance 11 = bound "
        f"({build_dt:.1f}s); planted overlap drops distance to "
        f"{planted_report.d_actual} and breaks freeness ({planted_dt:.1f}s, "
        f"limit 60s each)"
    )


@pytest.mark.criterion(8, "artifact-producing runs repeat byte for byte")
def test_criterion_8_determinism(acc):
    expected = ("c2", "c3", "c5", "c7")
    missing = [k for k in expected if k not in acc["generators"]]
    assert not missing, f"no artifacts to replay for {missing}"
    rerun = acc["dir"] / "rerun"
    compared = 0
    for name in expected:
        acc["generators"][name](rerun / name)
        first = acc["dir"] / name
        names_a = sorted(p.name for p in first.iterdir())
        names_b = sorted(p.name for p in (rerun / name).iterdir())
        assert names_a == names_b, name
        for fname in names_a:
            a = (first / fname).read_bytes()
            b = (rerun / name / fname).read_bytes()
            assert a == b, f"{name}/{fname} differs between runs"
            compared += 1
    ACCEPTANCE_LINES.append(
        f"PASS criterion 8: {compared} artifacts from criteria 2, 3, 5, 7 "
        f"byte-identical across reruns"
    )
