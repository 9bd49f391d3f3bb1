"""The benchmark's three workloads: inputs from a seed, one operation, checks.

Every operation goes through the public entry point ``sparsehg.cli.main``
in-process.  Checks are pure functions of what an operation left behind
(exit codes, reports, files), so the self-test can feed them deliberately
wrong outputs.  Each check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "pool.json"

LADDER = (3, 3, 6)  # construct-n384 builds and certifies ladder_profile(3, 3, 6)
LRC_Q, LRC_R, LRC_D = 23, 10, 11  # the optimal [22, 11] code over F_23
LRC_EXPECT = (11, 11, 11)  # (k, bound, d_actual) of an optimal spec
TWIN_LIMIT_S = 0.1  # the planted twin fails fast: a dependency of 4 columns


def load_pool() -> dict:
    return json.loads(POOL_FILE.read_text())


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main(argv)`` with its stdout captured; return (exit, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def construct_argv(n: int, seed: int, out: Path) -> list[str]:
    r, e, v = LADDER
    return ["construct", "--r", str(r), "--e", str(e), "--v", str(v), "--n", str(n),
            "--seed", str(seed), "--out", str(out)]


def check_construct(shg, rc: int, hg: Path, digests: dict | None) -> list[str]:
    """Exit 0, a holding certificate, an .hg that re-parses and re-certifies
    against the ladder profile, and .hg/trace bytes equal to the recorded
    digests (when digests are given)."""
    if rc != 0:
        return [f"construct exited {rc}"]
    stem = str(hg).removesuffix(".hg")
    cert_path, trace_path = Path(stem + ".cert.json"), Path(stem + ".trace.json")
    problems = []
    cert = json.loads(cert_path.read_text())
    if cert["verdict"]["holds"] is not True:
        problems.append(f"certificate verdict does not hold: {cert['verdict']}")
    h = shg.parse_hg(hg.read_text())
    if cert["yield"] != h.m:
        problems.append(f"certificate yield {cert['yield']} != {h.m} edges in the .hg")
    verdict = shg.check_profile(h, shg.ladder_profile(*LADDER))
    if not verdict.holds:
        problems.append(f"re-check of the .hg fails: witness {verdict.witness}")
    if digests is not None:
        for label, path in (("hg", hg), ("trace", trace_path)):
            got = sha256_file(path)
            if got != digests[label]:
                problems.append(f"{label} sha256 {got} != recorded {digests[label]}")
    return problems


def check_cbc(rc_construct: int, rc_verify: int, report: dict | None) -> list[str]:
    problems = []
    if rc_construct != 0:
        problems.append(f"cbc construct exited {rc_construct}")
    if rc_verify != 0:
        problems.append(f"cbc verify exited {rc_verify}")
    elif report is None or report.get("holds") is not True:
        problems.append(f"cbc verify report does not hold: {report}")
    return problems


def check_lrc_optimal(rc: int, report: dict | None) -> list[str]:
    if rc != 0:
        return [f"optimal spec: lrc verify exited {rc}"]
    got = (report["k"], report["bound"], report["d_actual"])
    if got != LRC_EXPECT:
        return [f"optimal spec: (k, bound, d_actual) = {got}, want {LRC_EXPECT}"]
    if not (report["optimal"] and report["free"]):
        return [f"optimal spec: optimal={report['optimal']} free={report['free']}"]
    return []


def check_lrc_twin(rc: int, report: dict | None, seconds: float) -> list[str]:
    problems = []
    if rc != 4:
        problems.append(f"planted twin: lrc verify exited {rc}, want 4")
    elif report["optimal"] or report["free"]:
        problems.append(f"planted twin: optimal={report['optimal']} free={report['free']}")
    if seconds >= TWIN_LIMIT_S:
        problems.append(f"planted twin took {seconds:.3f} s, limit {TWIN_LIMIT_S} s")
    return problems


def lrc_specs(seed: int, index: int) -> tuple[dict, dict]:
    """A seeded optimal spec (two 11-subsets of F_23 meeting in at most one
    point) and its planted twin (the same blocks moved to overlap in two)."""
    rng = random.Random(f"lrc-verify:{seed}:{index}")
    size = LRC_R + 1
    a1 = sorted(rng.sample(range(LRC_Q), size))
    outside = [x for x in range(LRC_Q) if x not in a1]
    overlap = rng.randint(0, 1)
    a2 = sorted(rng.sample(outside, size - overlap) + rng.sample(a1, overlap))
    # replace points of a2 outside a1 by points of a1 until they share two
    shared = [x for x in a2 if x in a1]
    own = [x for x in a2 if x not in a1]
    drop = rng.sample(own, 2 - len(shared))
    add = rng.sample([x for x in a1 if x not in shared], 2 - len(shared))
    twin_a2 = sorted([x for x in a2 if x not in drop] + add)
    spec = {"q": LRC_Q, "r": LRC_R, "d": LRC_D, "A": [a1, a2]}
    return spec, {**spec, "A": [a1, twin_a2]}


@dataclass
class Checked:
    """What the checks found for one operation."""

    label: str
    yield_edges: int | None = None
    problems: list[str] = field(default_factory=list)


class Workload:
    """``prepare`` and ``make_input`` are set-up, ``run_op`` is the timed
    operation and ``check`` runs afterwards, outside the timed region."""

    name = ""

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def make_input(self, index: int):
        raise NotImplementedError

    def run_op(self, cli, inp, tag: str, span):
        raise NotImplementedError

    def check(self, shg, inp, produced) -> Checked:
        raise NotImplementedError


class _PooledBuilderWorkload(Workload):
    """Program seeds come from the recorded pool in pool.json, in order from
    the workload seed.  The pool holds every seed whose first sample lies
    within 1% of its expected size, so an operation's cost reflects the code
    and not the luck of the binomial draw: on cbc-e6 (mean sample 191) the
    seeds sampling 166 and 203 edges differ twofold in work."""

    def prepare(self, seed, workdir):
        super().prepare(seed, workdir)
        self.pool = load_pool()[self.name]["seeds"]

    def make_input(self, index):
        entry = self.pool[(self.seed + index) % len(self.pool)]
        return entry["seed"], entry.get("digests"), self.workdir / f"{self.name}-{index}.hg"


class ConstructN384(_PooledBuilderWorkload):
    name = "construct-n384"

    def run_op(self, cli, inp, tag, span):
        seed, _, hg = inp
        hg = hg.with_name(hg.stem + tag + ".hg")
        with span("cli.main"):
            rc, _ = call_cli(cli, construct_argv(384, seed, hg))
        return rc, hg

    def check(self, shg, inp, produced):
        rc, hg = produced
        problems = check_construct(shg, rc, hg, inp[1])
        edges = shg.parse_hg(hg.read_text()).m if rc == 0 else None
        return Checked(f"seed {inp[0]}", edges, problems)


class CbcE6(_PooledBuilderWorkload):
    name = "cbc-e6"

    def run_op(self, cli, inp, tag, span):
        seed, _, hg = inp
        hg = hg.with_name(hg.stem + tag + ".hg")
        build = ["cbc", "construct", "--r", "3", "--e", "6", "--n", "16",
                 "--seed", str(seed), "--out", str(hg)]
        with span("cli.main"):
            rc_build, _ = call_cli(cli, build)
        rc_verify, out = None, ""
        if rc_build == 0:
            with span("cli.main"):
                rc_verify, out = call_cli(cli, ["cbc", "verify", str(hg), "--e", "6", "--json"])
        return rc_build, rc_verify, out, hg

    def check(self, shg, inp, produced):
        rc_build, rc_verify, out, hg = produced
        report = json.loads(out) if rc_verify in (0, 4) else None
        problems = check_cbc(rc_build, rc_verify, report)
        edges = shg.parse_hg(hg.read_text()).m if not problems else None
        return Checked(f"seed {inp[0]}", edges, problems)


class LrcVerify(Workload):
    name = "lrc-verify"

    def make_input(self, index):
        spec, twin = lrc_specs(self.seed, index)
        paths = (self.workdir / f"lrc-{index}.json", self.workdir / f"lrc-{index}-twin.json")
        for path, payload in zip(paths, (spec, twin)):
            path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        return paths

    def run_op(self, cli, inp, tag, span):
        spec, twin = inp
        with span("cli.main"):
            rc, out = call_cli(cli, ["lrc", "verify", str(spec), "--json"])
        t0 = time.perf_counter()
        with span("cli.main"):
            rc_twin, out_twin = call_cli(cli, ["lrc", "verify", str(twin), "--json"])
        return rc, out, rc_twin, out_twin, time.perf_counter() - t0

    def check(self, shg, inp, produced):
        rc, out, rc_twin, out_twin, twin_s = produced
        # the twin's time is its fastest of up to three runs, so one pause of
        # a shared machine does not fail the check
        for _ in range(2):
            if twin_s < TWIN_LIMIT_S:
                break
            t0 = time.perf_counter()
            call_cli(shg.cli, ["lrc", "verify", str(inp[1]), "--json"])
            twin_s = min(twin_s, time.perf_counter() - t0)
        report = json.loads(out) if rc in (0, 4) else None
        twin_report = json.loads(out_twin) if rc_twin in (0, 4) else None
        problems = check_lrc_optimal(rc, report) + check_lrc_twin(rc_twin, twin_report, twin_s)
        return Checked(f"spec {inp[0].name}", None, problems)


WORKLOADS = {w.name: w for w in (ConstructN384, CbcE6, LrcVerify)}
