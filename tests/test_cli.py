"""End-to-end command-line runs: exit codes, output files, report shapes,
environment overrides, and determinism across worker counts."""

import concurrent.futures
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from sparsehg import batch, builder, cli, errors, freeness, lrc, parse_hg
from sparsehg.cli import main

CYCLE_HG = "7 3 3\n1 2 5\n1 3 7\n2 3 6\n"
DISJOINT_HG = "6 2 3\n1 2 3\n4 5 6\n"
SINGLE_HG = "9 1 3\n1 2 3\n"
# four edges that read like two colluding pairs: {1,2,3} is covered by
# (0,1) and by (2,3) with empty intersection
PLANTED_IPPS_HG = "9 4 3\n1 2 4\n1 2 7\n3 5 6\n3 8 9\n"
CBC_BAD_HG = "6 5 3 multi\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n4 5 6\n"
CBC_OK_HG = "6 3 3 multi\n1 2 3\n1 2 3\n1 2 3\n"
README = Path(__file__).resolve().parents[1] / "README.md"


def record_pool_sizes(monkeypatch) -> list[int]:
    """Replace the process pool by a stand-in that records each pool's
    worker cap and runs the jobs in this process, starting none."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    for var in ("SPARSEHG_SEED", "SPARSEHG_JOBS", "SPARSEHG_BUDGET", "SPARSEHG_JSON"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "construct" in capsys.readouterr().out


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["construct", "--r", "3"]) == 1  # missing required flags
    assert main(["ipps"]) == 1  # missing subcommand
    assert main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
                 "--extra", "7-4"]) == 1  # want V:E
    assert main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
                 "--extra", "7:x"]) == 1
    assert main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,x"]) == 1


def test_every_error_class_exits_with_its_readme_code(tmp_path, monkeypatch, capsys):
    # the README's exit-code table names the classes of exits 2-4 and their
    # base, whose code 1 every other class inherits; main returns the
    # class's own code
    table = {}
    for line in README.read_text().splitlines():
        if row := re.match(r"\| (\d) +\|", line):
            table.update((name, int(row.group(1))) for name in re.findall(r"`(\w+)`", line))
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.SparseHgError)]
    assert set(table) <= {c.__name__ for c in classes}
    assert sorted(set(table.values())) == [1, 2, 3, 4]
    (tmp_path / "d.hg").write_text(DISJOINT_HG)
    for cls in classes:
        code = table.get(cls.__name__, table["SparseHgError"])
        assert cls.exit_code == code, cls.__name__

        def planted(text, cls=cls):
            raise cls("planted")

        monkeypatch.setattr(cli, "parse_hg", planted)
        assert main(["verify", "d.hg", "--e", "2", "--v", "5"]) == code
        assert capsys.readouterr().err == f"error: {cls.__name__}: planted\n"


def test_construct_writes_three_files(tmp_path, capsys):
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
               "--seed", "1", "--out", "g.hg"])
    assert rc == 0
    assert "constructed 18 edges" in capsys.readouterr().out
    assert (tmp_path / "g.hg").exists()
    trace = json.loads((tmp_path / "g.trace.json").read_text())
    assert trace["schema"] == 1 and trace["yield"] == 18
    cert = json.loads((tmp_path / "g.cert.json").read_text())
    assert cert["verdict"]["holds"] is True
    assert cert["profile"] == [[2, 4], [3, 6]]


def test_construct_with_an_extra_target(tmp_path):
    # --extra V:E adds the target (7, 4): every 4 edges span at least 8
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
               "--seed", "1", "--extra", "7:4", "--out", "g.hg"])
    assert rc == 0
    cert = json.loads((tmp_path / "g.cert.json").read_text())
    assert cert["params"]["extra_targets"] == [[7, 4]]
    assert cert["verdict"]["holds"] is True
    h = parse_hg((tmp_path / "g.hg").read_text())
    assert h.m == 18 and oracles.violations(h.edges, 4, 7) == []


def test_construct_certificate_is_checked_once(tmp_path, monkeypatch):
    # the certificate file carries the verdict construct() already checked
    calls = []
    real = freeness.check_profile

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(freeness, "check_profile", counting)
    monkeypatch.setattr(builder, "check_profile", counting)
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
               "--seed", "1", "--out", "g.hg"])
    assert rc == 0
    assert calls == [freeness.ladder_profile(3, 3, 6)]
    cert = json.loads((tmp_path / "g.cert.json").read_text())
    h = parse_hg((tmp_path / "g.hg").read_text())
    assert cert["verdict"] == real(h, freeness.ladder_profile(3, 3, 6)).to_report()


def test_construct_exits_4_when_its_certificate_fails(monkeypatch, capsys):
    # a stand-in ladder check fails the output; the builder raises with
    # the witness and writes nothing
    failed = freeness.Verdict(False, freeness.FreenessConstraint(3, 6), (0, 1, 2), 6)
    monkeypatch.setattr(builder, "check_profile", lambda *args, **kwargs: failed)
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
               "--seed", "1", "--out", "g.hg"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: CertificationFailed: certification failed on constraint")
    assert "(0, 1, 2)" in err
    assert not Path("g.hg").exists()


def test_construct_exits_4_when_an_extra_target_fails(monkeypatch, capsys):
    # a stand-in check fails the extra target (7, 4): exit 4 names the
    # witness edges, as the ladder's failure does, and writes nothing
    failed = freeness.Verdict(False, freeness.FreenessConstraint(4, 7), (0, 1, 2, 3), 7)
    monkeypatch.setattr(builder, "check_free", lambda *args, **kwargs: failed)
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
               "--seed", "1", "--extra", "7:4", "--out", "g.hg"])
    assert rc == 4
    assert capsys.readouterr().err == (
        "error: CertificationFailed: certification failed on extra target (7, 4): (0, 1, 2, 3)\n"
    )
    assert not Path("g.hg").exists()


def test_lrc_build_exits_4_when_its_code_is_not_optimal(monkeypatch, capsys):
    # a stand-in distance check reports d = 10 against the bound 11
    failed = freeness.Verdict(False, None, (11, 11, 10), 10)
    monkeypatch.setattr(lrc, "check_optimal", lambda *args, **kwargs: failed)
    assert main([*LRC_BUILD, "--out", "c.json"]) == 4
    assert capsys.readouterr().err == (
        "error: CertificationFailed: certification failed: (k, bound, d_actual) = (11, 11, 10)\n"
    )
    assert not Path("c.json").exists()


def test_cbc_verify_exits_1_when_its_checks_disagree(tmp_path, monkeypatch, capsys):
    # a stand-in matching check contradicts the span check: no report, one
    # error line
    (tmp_path / "ok.hg").write_text(CBC_OK_HG)
    monkeypatch.setattr(batch, "check_sdr_all", lambda *args, **kwargs: freeness.Verdict(False))
    for json_flag in ([], ["--json"]):
        assert main(["cbc", "verify", "ok.hg", "--e", "3", *json_flag]) == 1
        assert capsys.readouterr() == ("", "error: SparseHgError: distinct-representative and span checks disagree\n")


def test_bad_numeric_arguments_exit_1_before_any_work(monkeypatch, capsys):
    # plan and the budget flag reject these before a sample is drawn or a
    # code is built, so the stand-ins below must never run
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(builder, "sample", no_work)
    monkeypatch.setattr(lrc, "construct_lrc", no_work)
    construct = ["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32"]
    runs = [
        (construct + ["--min-expected-edges", "nan"], "finite min_expected_edges >= 0, got nan"),
        (construct + ["--min-expected-edges", "inf"], "finite min_expected_edges >= 0, got inf"),
        (construct + ["--min-expected-edges=-inf"], "finite min_expected_edges >= 0, got -inf"),
        (construct + ["--min-expected-edges", "-1"], "finite min_expected_edges >= 0, got -1.0"),
        (construct + ["--min-yield", "-5"], "min_yield >= 0, got -5"),
        (construct + ["--budget", "-1"], "budget >= 0, got -1"),
        (["lrc", "build", "--q", "23", "--r", "10", "--d", "11", "--m", "2", "--budget", "-1"], "budget >= 0, got -1"),
    ]
    for args, why in runs:
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "error: BadRange" in err and why in err
    monkeypatch.setenv("SPARSEHG_BUDGET", "-2")
    assert main(construct) == 1
    assert "budget >= 0, got -2" in capsys.readouterr().err


def test_construct_json_report(capsys):
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
               "--seed", "1", "--out", "g.hg", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["output"] == "g.hg"
    assert report["yield"] == 18


def test_construct_degenerate_probability(capsys):
    # a sample floor of C(8,3) pushes the edge probability to 1
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "8",
               "--min-expected-edges", "56"])
    assert rc == 1
    assert "DegenerateP" in capsys.readouterr().err


def test_construct_retries_exhausted_exit_two(capsys):
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
               "--min-yield", "1000000", "--max-retries", "2"])
    assert rc == 2
    assert "RetriesExhausted" in capsys.readouterr().err


def test_verify_profile_and_ladder(tmp_path, capsys):
    main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
          "--seed", "1", "--out", "g.hg"])
    capsys.readouterr()
    assert main(["verify", "g.hg", "--ladder", "--e", "3", "--v", "6"]) == 0
    assert main(["verify", "g.hg", "--e", "3", "--v", "6"]) == 0
    out = capsys.readouterr().out
    assert "holds" in out


def test_verify_violation_exits_four(tmp_path, capsys):
    (tmp_path / "cyc.hg").write_text(CYCLE_HG)
    rc = main(["verify", "cyc.hg", "--e", "3", "--v", "7", "--json"])
    assert rc == 4
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is False
    assert report["witness"] == [0, 1, 2]


def test_verify_names_the_first_edges_when_the_support_is_small(tmp_path, capsys):
    # the complete 3-graph on 11 points: any 4 edges span at most 11, so the
    # lex-first 4 violate (4, 11) without a listing; (4, 10) still lists,
    # past the default budget
    triples = itertools.combinations(range(1, 12), 3)
    (tmp_path / "k11.hg").write_text("11 165 3\n" + "".join(f"{a} {b} {c}\n" for a, b, c in triples))
    assert main(["verify", "k11.hg", "--e", "4", "--v", "11", "--json"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert (report["witness"], report["spanned"], report["flags"]) == ([0, 1, 2, 3], 6, [])
    assert main(["verify", "k11.hg", "--e", "4", "--v", "10"]) == 3
    assert "BudgetExceeded" in capsys.readouterr().err


def test_verify_requires_a_mode(tmp_path, capsys):
    (tmp_path / "d.hg").write_text(DISJOINT_HG)
    assert main(["verify", "d.hg"]) == 1
    assert "--berge" in capsys.readouterr().err
    # --ladder needs the (e, v) target too, and says so without a traceback
    assert main(["verify", "d.hg", "--ladder"]) == 1
    err = capsys.readouterr().err
    assert "--berge" in err and "Traceback" not in err


def test_verify_missing_file(capsys):
    assert main(["verify", "nope.hg", "--e", "3", "--v", "6"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_verify_berge(tmp_path, capsys):
    (tmp_path / "cyc.hg").write_text(CYCLE_HG)
    (tmp_path / "d.hg").write_text(DISJOINT_HG)
    assert main(["verify", "d.hg", "--berge", "3"]) == 0
    capsys.readouterr()
    rc = main(["verify", "cyc.hg", "--berge", "3", "--json"])
    assert rc == 4
    report = json.loads(capsys.readouterr().out)
    assert report["girth"] == 3
    assert len(report["witness"]["edges"]) == 3


def test_verify_berge_budget_exit_three(tmp_path, capsys):
    # the 20 triples on 6 points: the search expands edge 0 alone, whose
    # vertices lead to edges sharing two of them (a Berge 2-cycle), and no
    # shorter cycle is left for the other roots to find
    triples = itertools.combinations(range(1, 7), 3)
    (tmp_path / "k6.hg").write_text("6 20 3\n" + "".join(f"{a} {b} {c}\n" for a, b, c in triples))
    assert main(["verify", "k6.hg", "--berge", "3", "--budget", "0"]) == 3
    assert "BudgetExceeded" in capsys.readouterr().err
    assert main(["verify", "k6.hg", "--berge", "3", "--budget", "1"]) == 4


def test_verify_berge_budget_bounds_a_production_search(tmp_path, capsys):
    # the certified (3,3,6) output at n = 256, seed 0: a 4-cycle closes at
    # root 0, then every root searches below length 4; the search expands
    # 4758 edge nodes in all
    assert main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "256", "--seed", "0", "--out", "c.hg"]) == 0
    capsys.readouterr()
    assert main(["verify", "c.hg", "--berge", "4", "--budget", "4757"]) == 3
    assert "BudgetExceeded" in capsys.readouterr().err
    assert main(["verify", "c.hg", "--berge", "4", "--budget", "4758", "--json"]) == 4
    assert json.loads(capsys.readouterr().out)["girth"] == 4


def test_scaling_csv_and_slope(tmp_path, capsys):
    rc = main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64",
               "--trials", "2", "--seed", "1", "--out", "s.csv", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["slope"] == 1.702547
    assert list(report["medians"].items()) == [("32", 18.5), ("48", 38.0), ("64", 60.0)]
    text = (tmp_path / "s.csv").read_bytes().decode()
    lines = text.split("\r\n")
    assert lines[0] == "n,trial,seed,yield,runtime_ms"
    assert lines[1] == "32,0,1,18,"  # no --timings: runtime column empty
    assert lines[-2] == "summary,slope=1.702547,target=1.500000,residual=0.000658,points=3"


def test_scaling_json_lists_medians_by_ascending_n(tmp_path, capsys):
    # "16" < "32" < "8" as strings: the medians follow n, the other keys
    # stay sorted like those of every report
    rc = main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,8,16",
               "--trials", "1", "--seed", "1", "--out", "s.csv", "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert list(report["medians"].items()) == [("8", 3), ("16", 8), ("32", 18)]
    assert list(report) == sorted(report)
    assert out == json.dumps(report, indent=2) + "\n"


def test_scaling_deterministic_across_jobs(tmp_path):
    args = ["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64",
            "--trials", "2", "--seed", "1"]
    main(args + ["--out", "a.csv", "--jobs", "1"])
    main(args + ["--out", "b.csv", "--jobs", "2"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_jobs_is_a_scaling_flag(tmp_path, monkeypatch, capsys):
    (tmp_path / "d.hg").write_text(DISJOINT_HG)
    assert main(["verify", "d.hg", "--e", "2", "--v", "5", "--jobs", "2"]) == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    monkeypatch.setenv("SPARSEHG_JOBS", "2")
    sizes = record_pool_sizes(monkeypatch)
    assert main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64", "--trials", "1"]) == 0
    assert sizes == [2]


def test_scaling_timings_fill_the_column(tmp_path):
    main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64",
          "--trials", "1", "--seed", "1", "--out", "t.csv", "--timings"])
    row = (tmp_path / "t.csv").read_bytes().decode().split("\r\n")[1]
    assert row.split(",")[4] != ""


def test_scaling_needs_three_points(tmp_path, capsys):
    rc = main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48",
               "--trials", "1", "--out", "s.csv"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: BadRange" in err and "3 distinct n" in err
    rc = main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64",
               "--trials", "0", "--out", "s.csv"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: BadRange" in err and "trials >= 1" in err
    # C(4000000, 3) is too large for the sampler, so that cell fails and
    # only two n values yield: the summary row carries no slope
    rc = main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,4000000",
               "--trials", "1", "--out", "s.csv", "--json"])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["slope"] is None and list(report["medians"]) == ["32", "48"]
    lines = (tmp_path / "s.csv").read_bytes().decode().split("\r\n")
    assert lines[3] == "4000000,0,0,,"
    assert lines[-2] == "summary,slope=,target=1.500000,residual=,points=2"


def test_scaling_parameter_errors_exit_1(capsys):
    # errors every cell would share stop the run before any cell, where
    # they would read as "no fit" (exit 2) over a CSV of empty cells
    runs = [
        (["--r", "3", "--e", "2", "--v", "6", "--n", "8,9,10"], "BadRange", "e >= 3"),
        (["--r", "3", "--e", "4", "--v", "9", "--n", "32,48,64"], "GcdCondition", "gcd(e-1, e*r-v)"),
        (["--r", "3", "--e", "3", "--v", "6", "--n", "1,2,3"], "BadRange", "n >= r = 3"),
    ]
    for args, kind, why in runs:
        assert main(["scaling", *args, "--trials", "1", "--out", "s.csv"]) == 1
        err = capsys.readouterr().err
        assert f"error: {kind}" in err and why in err
        assert not Path("s.csv").exists()


def test_scaling_pool_never_outnumbers_its_jobs(monkeypatch):
    # a pool may start every worker at once, so the cap is the job count
    sizes = record_pool_sizes(monkeypatch)
    args = ["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64", "--trials", "1"]
    assert main(args + ["--jobs", "8"]) == 0
    assert main(args + ["--jobs", "2"]) == 0
    assert sizes == [3, 2]


def test_scaling_rejects_fewer_than_one_job(monkeypatch, capsys):
    args = ["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64", "--trials", "1"]
    for jobs in ("0", "-2"):
        assert main(args + ["--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert "error: BadRange" in err and "jobs >= 1" in err
    monkeypatch.setenv("SPARSEHG_JOBS", "0")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "error: BadRange" in err and "jobs >= 1" in err
    assert main([*args, "--jobs", "1"]) == 0  # the flag wins


def test_negative_seed_exits_1_with_bad_range(monkeypatch, capsys):
    runs = [
        ["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "64", "--seed", "-1"],
        ["cbc", "construct", "--r", "3", "--e", "6", "--n", "16", "--seed", "-2"],
        ["lrc", "build", "--q", "23", "--r", "11", "--d", "11", "--m", "2", "--seed", "-1"],
        ["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64", "--trials", "1", "--seed", "-1"],
    ]
    for args in runs:
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "error: BadRange" in err and "seed >= 0" in err and "Traceback" not in err
    assert not Path("scaling.csv").exists()
    monkeypatch.setenv("SPARSEHG_SEED", "-1")
    assert main(runs[0][:-2]) == 1
    assert "error: BadRange" in capsys.readouterr().err


def test_cli_import_leaves_the_process_pool_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, sparsehg, sparsehg.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_oversized_sample_is_refused_without_a_traceback(tmp_path):
    # n = 10**6 expects 5.27e8 edges: the sampler refuses the drawn count
    # against the budget instead of building the ranks.  Each run is a child
    # under a 2 GiB address-space cap, so a sampler that builds them fails
    # there, not in the test process
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from sparsehg.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    runs = {
        "construct": (3, ["--n", "1000000"]),
        "scaling": (2, ["--n", "32,48,1000000", "--trials", "1"]),
    }
    for command, (status, args) in runs.items():
        argv = [command, "--r", "3", "--e", "3", "--v", "6", *args]
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == status, (command, out.stderr)
        assert "Traceback" not in out.stderr
        if command == "construct":
            [line] = out.stderr.splitlines()
            assert re.fullmatch(r"error: TooLarge: a sample of \d+ edges exceeds budget 1000000", line)
        else:
            assert "no fit" in out.stdout
            rows = (tmp_path / "scaling.csv").read_text().splitlines()
            assert rows[3] == "1000000,0,0,,"


def test_ipps_construct_and_verify(tmp_path, capsys):
    rc = main(["ipps", "construct", "--r", "3", "--t", "3", "--n", "500",
               "--seed", "4", "--out", "i.hg", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == 11
    assert (report["e"], report["v"]) == (6, 15)
    header = (tmp_path / "i.hg").read_text().splitlines()[0]
    assert header == "500 11 3"


def test_ipps_construct_gcd_guard(capsys):
    assert main(["ipps", "construct", "--r", "3", "--t", "2", "--n", "100"]) == 1
    assert "GcdCondition" in capsys.readouterr().err


def test_ipps_construct_starved_exit_two(capsys):
    assert main(["ipps", "construct", "--r", "3", "--t", "3", "--n", "40",
                 "--seed", "2"]) == 2
    assert "RetriesExhausted" in capsys.readouterr().err


def test_ipps_verify_single_edge(tmp_path):
    (tmp_path / "one.hg").write_text(SINGLE_HG)
    assert main(["ipps", "verify", "one.hg", "--t", "2"]) == 0


def test_ipps_verify_planted_negative(tmp_path, capsys):
    (tmp_path / "bad.hg").write_text(PLANTED_IPPS_HG)
    rc = main(["ipps", "verify", "bad.hg", "--t", "2", "--json"])
    assert rc == 4
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is False
    assert report["witness"][0] == [1, 2, 3]


def test_ipps_verify_guard_and_force(tmp_path, capsys):
    (tmp_path / "wide.hg").write_text("25 1 3\n1 2 3\n")
    assert main(["ipps", "verify", "wide.hg", "--t", "2"]) == 3
    assert "TooLarge" in capsys.readouterr().err
    assert main(["ipps", "verify", "wide.hg", "--t", "2", "--force"]) == 0


def test_cbc_verify(tmp_path, capsys):
    (tmp_path / "ok.hg").write_text(CBC_OK_HG)
    (tmp_path / "bad.hg").write_text(CBC_BAD_HG)
    rc = main(["cbc", "verify", "ok.hg", "--e", "3", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["sdr_agrees"] is True
    rc = main(["cbc", "verify", "bad.hg", "--e", "4", "--json"])
    assert rc == 4
    report = json.loads(capsys.readouterr().out)
    assert report["witness"] == [0, 1, 2, 3]


def test_cbc_verify_cross_checks_within_the_matching_guard(tmp_path, capsys):
    # the distinct-representative cross-check runs up to check_sdr_all's
    # 20-edge guard and is left out past it
    triples = list(itertools.combinations(range(1, 8), 3))
    for m, cross_checked in ((20, True), (21, False)):
        lines = [f"7 {m} 3"] + [" ".join(map(str, t)) for t in triples[:m]]
        (tmp_path / f"m{m}.hg").write_text("\n".join(lines) + "\n")
        assert main(["cbc", "verify", f"m{m}.hg", "--e", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert ("sdr_agrees" in report) == cross_checked
        assert report.get("sdr_agrees", True) is True


def test_cbc_construct(tmp_path, capsys):
    rc = main(["cbc", "construct", "--r", "3", "--e", "5", "--n", "24",
               "--seed", "1", "--out", "c.hg"])
    assert rc == 0
    assert "items" in capsys.readouterr().out
    assert main(["cbc", "verify", "c.hg", "--e", "5"]) == 0


def test_cbc_construct_e6_bytes_pinned(tmp_path):
    # bytes recorded before the builder and the span kernel were sped up:
    # a faster search must not change what the builder keeps
    pinned = {
        7: "5dc0c874951f7556baa057089ea81393a454346aff47bc79164cbca524553d05",
        20: "ffced0f8c89eda78d3e437b5975cdee8b5f45694b16759b91902087b562b2b1c",
        23: "aff276b08a6c4aed8ae528a94287bf92ce8286831e3791757e4f0938cacb15e9",
        28: "6566e1897a6f8106b5661a131b2b4d38d55aa4ee43673a01208943fccc4aaeb1",
    }
    for seed, expected in pinned.items():
        rc = main(["cbc", "construct", "--r", "3", "--e", "6", "--n", "16",
                   "--seed", str(seed), "--out", f"c6-{seed}.hg"])
        assert rc == 0
        digest = hashlib.sha256((tmp_path / f"c6-{seed}.hg").read_bytes()).hexdigest()
        assert digest == expected, seed


def test_construct_n384_bytes_pinned(tmp_path):
    # production-size constructs: .hg, trace and certificate bytes recorded
    # before the level-2 sweep, the entangled-pair sweep and the exchange
    # pass were rewritten, so a faster stage must not change what the
    # builder keeps.  The trace's W_before counts the 3,773 bad 3-systems
    # after level 2 (the 2,048-edge sample holds 21,784).  The (3, 4, 7)
    # run is the e = 4 ladder at a size the other tests do not reach
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "384",
               "--seed", "2", "--out", "g.hg"])
    assert rc == 0
    rc = main(["construct", "--r", "3", "--e", "4", "--v", "7", "--n", "128",
               "--seed", "0", "--out", "h.hg"])
    assert rc == 0
    pinned = {
        "g.hg": "714108cc2249dc7364fcd576615d789e8ae6fe67b1fdd4147076e787a1998012",
        "g.trace.json": "0ecf1007eadb654bfbeee80eb3a81187bb31691d46c922ab01bc34e5016237f9",
        "h.hg": "cd0f8845aed61d52f5b8a72f04a96b8ae5011b27c09233fde7d1bce9b6847158",
        "h.cert.json": "f6e32ec25e0d5ef57d4f90152f9d8b39a4659901e964586cf63762221893b49f",
    }
    for name, expected in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected, name


def test_vertex_route_takes_only_tight_levels(monkeypatch):
    # cbc-e6's (6, 5) and (4, 4) levels are tight; the (3, 3, 6) ladder and
    # construct_lrc's kernel calls (all at size 2) never reach the route
    levels = []
    real = freeness._vertex_route

    def counting(masks, size, max_span, budget=None):
        levels.append((size, max_span))
        return real(masks, size, max_span, budget)

    monkeypatch.setattr(freeness, "_vertex_route", counting)
    assert main(["cbc", "construct", "--r", "3", "--e", "6", "--n", "16", "--out", "c6.hg"]) == 0
    assert {(6, 5), (4, 4)} <= set(levels)
    levels.clear()
    builder.construct(3, 3, 6, 128, seed=0)
    lrc.construct_lrc(23, 10, 11, 2, seed=0)
    assert levels == []


def test_lrc_build_rejects_r_equal_d_minus_2(capsys):
    # the Singleton-type bound is d + 1 there, so no build could certify
    assert main(["lrc", "build", "--q", "31", "--r", "9", "--d", "11", "--m", "2"]) == 1
    err = capsys.readouterr().err
    assert "error: BadRange" in err and "r >= d - 1" in err


def test_lrc_build_counting_bound(capsys):
    assert main(["lrc", "build", "--q", "23", "--r", "10", "--d", "11", "--m", "3"]) == 2
    assert "InsufficientYield" in capsys.readouterr().err


def test_lrc_build_rejects_unbuildable_inputs_up_front(tmp_path, capsys):
    # each pair of field elements lies in at most one block, so m >= 5
    # blocks of 11 cannot fit in F_23, and the builder, whose budget or
    # sweep such an m exhausts, must not run; a field whose C(q, r + 1)
    # candidate blocks are past the sampler's 2**62 is a bad range, caught
    # before the sampling floor's float arithmetic overflows
    build = ["lrc", "build", "--q", "23", "--r", "10", "--d", "11", "--m"]
    for m in ("21", "2000", "100000"):
        assert main(build + [m]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InsufficientYield: ") and "> C(23, 2) = 253 pairs" in err
    assert main(["lrc", "build", "--q", "1000003", "--r", "1000", "--d", "11", "--m", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: BadRange: C(1000003,1001) candidate blocks exceed the sampler's limit of 2**62\n"
    assert list(tmp_path.iterdir()) == []


def test_lrc_build_writes_a_spec_that_verifies(tmp_path, capsys):
    rc = main(["lrc", "build", "--q", "23", "--r", "10", "--d", "11", "--m", "2",
               "--out", "spec.json", "--fqm", "spec.fqm"])
    assert rc == 0
    assert "built 2 blocks over F_23, wrote spec.json" in capsys.readouterr().out
    spec = lrc.LrcSpec.from_json((tmp_path / "spec.json").read_text())
    assert (spec.q, spec.r, spec.d, spec.m) == (23, 10, 11, 2)
    assert (tmp_path / "spec.fqm").read_bytes() == lrc.serialize_fqm(lrc.parity_check(spec)).encode()
    assert main(["lrc", "verify", "spec.json", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["optimal"] is True and report["free"] is True


def test_lrc_build_at_a_small_field():
    # q = 19 <= 2r: no two blocks can both survive, and one block suffices
    assert main(["lrc", "build", "--q", "19", "--r", "10", "--d", "11", "--m", "1",
                 "--out", "one.json"]) == 0
    assert main(["lrc", "verify", "one.json"]) == 0


def test_lrc_verify(tmp_path, capsys):
    small = lrc.LrcSpec(q=7, r=2, d=3, a_list=((0, 1, 2), (3, 4, 5)))
    (tmp_path / "small.json").write_text(small.to_json())
    rc = main(["lrc", "verify", "small.json", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["agree"] is True and report["d_actual"] == 3
    assert report["flags"]  # d < 11 warning

    planted = lrc.LrcSpec(
        q=23, r=10, d=11, a_list=(tuple(range(11)), tuple(range(9, 20)))
    )
    (tmp_path / "planted.json").write_text(planted.to_json())
    rc = main(["lrc", "verify", "planted.json", "--json"])
    assert rc == 4
    report = json.loads(capsys.readouterr().out)
    assert report["d_actual"] == 4 and report["agree"] is True


def test_lrc_verify_exit_4_names_its_witness(tmp_path, capsys):
    # a seeded [22, 11] spec's twin, whose blocks share the points 3 and
    # 21: four columns are dependent and the two blocks span 20 points
    twin = {"q": 23, "r": 10, "d": 11, "A": [[1, 2, 3, 5, 8, 9, 10, 11, 12, 16, 21],
                                              [0, 3, 4, 6, 7, 13, 14, 18, 19, 20, 21]]}
    (tmp_path / "twin.json").write_text(json.dumps(twin))
    assert main(["lrc", "verify", "twin.json", "--json"]) == 4
    report = json.loads(capsys.readouterr().out)
    columns = report["witness"]["columns"]
    assert len(columns) == report["d_actual"] == 4
    entries = lrc.parity_check(lrc.LrcSpec.from_json(json.dumps(twin))).entries
    assert oracles.rank_mod([[row[c] for c in columns] for row in entries], 23) < len(columns)
    assert report["witness"]["blocks"] == [0, 1]
    assert main(["lrc", "verify", "twin.json"]) == 4
    assert capsys.readouterr().out == (
        "k=11, bound=11, distance=4: not optimal; witness: columns [2, 10, 12, 21] "
        "are dependent, blocks [0, 1] span too few points\n"
    )
    # a report that holds is unchanged: no witness key
    spec = {**twin, "A": [twin["A"][0], [0, 3, 4, 6, 7, 13, 14, 17, 18, 19, 20]]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["lrc", "verify", "spec.json", "--json"]) == 0
    assert "witness" not in json.loads(capsys.readouterr().out)


def test_lrc_verify_warns_when_the_sides_disagree(tmp_path, capsys):
    # at r = d - 2 two disjoint blocks are free, yet the code misses the
    # bound by one: the human report says so on its own line
    spec = lrc.LrcSpec(q=31, r=9, d=11, a_list=(tuple(range(10)), tuple(range(10, 20))))
    (tmp_path / "d.json").write_text(spec.to_json())
    assert main(["lrc", "verify", "d.json"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("k=9, bound=12, distance=11: not optimal")
    assert lines[1:] == [
        "warning: code side and combinatorial side disagree",
        "warning: r < d - 1: outside the stated equivalence hypotheses",
    ]


def test_lrc_verify_rejects_a_field_size_from_2_64(tmp_path, capsys):
    # a strong pseudoprime to every base of is_prime: not a field
    q = 399165290221 * 798330580441
    (tmp_path / "big.json").write_text(json.dumps({"q": q, "r": 2, "d": 3, "A": [[0, 1, 2], [3, 4, 5]]}))
    assert main(["lrc", "verify", "big.json"]) == 1
    err = capsys.readouterr().err
    assert "error: BadRange" in err and "2**64" in err


def test_lrc_verify_missing_file(capsys):
    assert main(["lrc", "verify", "nope.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bad.hg", "--e", "3", "--v", "6"],
        ["cbc", "verify", "bad.hg", "--e", "3"],
        ["ipps", "verify", "bad.hg", "--t", "2"],
        ["lrc", "verify", "bad.hg"],
    ],
)
def test_verify_rejects_undecodable_file(tmp_path, capsys, argv):
    (tmp_path / "bad.hg").write_bytes(b"\xff\xfe")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "cannot decode bad.hg" in err and "Traceback" not in err


CONSTRUCT = ["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32"]
LRC_BUILD = ["lrc", "build", "--q", "23", "--r", "10", "--d", "11", "--m", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        [*CONSTRUCT, "--out", "nodir/x.hg"],
        [*CONSTRUCT, "--trace", "adir"],
        [*CONSTRUCT, "--cert", "nodir/x.cert.json"],
        ["ipps", "construct", "--r", "3", "--t", "3", "--n", "500", "--seed", "4", "--out", "adir"],
        ["cbc", "construct", "--r", "3", "--e", "5", "--n", "24", "--seed", "1", "--out", "nodir/x.hg"],
        [*LRC_BUILD, "--out", "adir"],
        [*LRC_BUILD, "--fqm", "nodir/x.fqm"],
        ["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64", "--trials", "1", "--out", "adir"],
    ],
)
def test_unwritable_output_path_exits_1(tmp_path, capsys, argv):
    # a missing directory, or a directory as the path: one error line, and
    # none of the command's other files is left behind
    (tmp_path / "adir").mkdir()
    assert main(argv) == 1
    err = capsys.readouterr().err
    reason = "Is a directory" if argv[-1] == "adir" else "No such file or directory"
    assert err == f"error: SparseHgError: cannot write {argv[-1]}: {reason}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert not any((tmp_path / "adir").iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        [*CONSTRUCT, "--out", "same.json", "--trace", "same.json"],
        [*CONSTRUCT, "--out", "x.hg", "--cert", "./x.hg"],
        [*CONSTRUCT, "--trace", "construct_r3_e3_v6_n32_seed0.hg"],
        [*LRC_BUILD, "--out", "s.txt", "--fqm", "s.txt"],
    ],
)
def test_colliding_output_paths_exit_1(tmp_path, capsys, argv):
    # two outputs naming one file would leave only the later one: one
    # error line, and no file is written
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: SparseHgError: two outputs would both be written to {argv[-1]}\n"
    assert list(tmp_path.iterdir()) == []


def test_each_flag_only_on_the_commands_that_read_it(tmp_path, monkeypatch, capsys):
    # verifiers draw no randomness, check_ipps takes no budget, and a Berge
    # search reads no span profile: each such flag is a usage error
    (tmp_path / "d.hg").write_text(DISJOINT_HG)
    runs = [
        ["verify", "d.hg", "--e", "2", "--v", "5"],
        ["ipps", "verify", "d.hg", "--t", "2"],
        ["cbc", "verify", "d.hg", "--e", "2"],
        ["lrc", "verify", "s.json"],
    ]
    for argv in runs:
        assert main([*argv, "--seed", "1"]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(runs[1]) == 0
    assert main([*runs[1], "--budget", "9"]) == 1
    assert "unrecognized arguments: --budget 9" in capsys.readouterr().err
    assert main(["verify", "d.hg", "--berge", "3"]) == 0
    for extra in (["--e", "2"], ["--v", "5"], ["--ladder"]):
        assert main(["verify", "d.hg", "--berge", "3", *extra]) == 1
        assert "error: SparseHgError: verify --berge T takes no --e, --v or --ladder" in capsys.readouterr().err
    # the environment's seed is still read and checked on every command
    monkeypatch.setenv("SPARSEHG_SEED", "oops")
    assert main(runs[1]) == 1
    assert "bad SPARSEHG_SEED" in capsys.readouterr().err


def test_env_seed_matches_flag(tmp_path, monkeypatch):
    main(["ipps", "construct", "--r", "3", "--t", "3", "--n", "500",
          "--seed", "4", "--out", "flag.hg"])
    monkeypatch.setenv("SPARSEHG_SEED", "4")
    main(["ipps", "construct", "--r", "3", "--t", "3", "--n", "500",
          "--out", "env.hg"])
    assert (tmp_path / "flag.hg").read_bytes() == (tmp_path / "env.hg").read_bytes()


def test_env_bad_value_exits_one(monkeypatch, capsys):
    monkeypatch.setenv("SPARSEHG_SEED", "oops")
    assert main(["verify", "x.hg", "--e", "3", "--v", "6"]) == 1
    assert "bad SPARSEHG_SEED" in capsys.readouterr().err


def test_parser_is_built_once_per_environment(tmp_path, monkeypatch, capsys):
    # each build costs milliseconds and leaves cyclic garbage, so main
    # builds the parser once and reads the SPARSEHG_* values on every call;
    # a bad value still exits 1 on every call
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    (tmp_path / "d.hg").write_text(DISJOINT_HG)
    argv = ["verify", "d.hg", "--e", "2", "--v", "5"]
    for _ in range(3):
        assert main(argv) == 0
    assert len(builds) == 1
    assert capsys.readouterr().out.startswith("profile [(2, 5)]: holds")
    monkeypatch.setenv("SPARSEHG_SEED", "oops")
    for _ in range(2):
        assert main(argv) == 1
        assert "bad SPARSEHG_SEED" in capsys.readouterr().err
    monkeypatch.delenv("SPARSEHG_SEED")
    monkeypatch.setenv("SPARSEHG_JSON", "1")
    for _ in range(2):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True
    assert len(builds) == 1
    cli._parser.cache_clear()


def test_env_json_flag(tmp_path, monkeypatch, capsys):
    (tmp_path / "d.hg").write_text(DISJOINT_HG)
    argv = ["verify", "d.hg", "--e", "2", "--v", "5"]
    for raw in ("1", "TRUE", "yes", "On"):
        monkeypatch.setenv("SPARSEHG_JSON", raw)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True
    for raw in ("", "0", "False", "NO", "off"):
        monkeypatch.setenv("SPARSEHG_JSON", raw)
        assert main(argv) == 0
        assert capsys.readouterr().out == "profile [(2, 5)]: holds\n"
    # any other value exits 1 on every command, as a bad SPARSEHG_SEED does
    for raw in ("ture", "2"):
        monkeypatch.setenv("SPARSEHG_JSON", raw)
        for run in (argv, ["--help"], ["cbc", "verify", "d.hg", "--e", "2"]):
            assert main(run) == 1
            assert capsys.readouterr() == ("", f"error: SparseHgError: bad SPARSEHG_JSON={raw!r}\n")
