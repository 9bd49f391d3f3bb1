"""End-to-end command-line runs: exit codes, output files, report shapes,
environment overrides, and determinism across worker counts."""

import hashlib
import itertools
import json

import pytest

from sparsehg import builder, freeness, lrc, parse_hg
from sparsehg.cli import build_parser, main

CYCLE_HG = "7 3 3\n1 2 5\n1 3 7\n2 3 6\n"
DISJOINT_HG = "6 2 3\n1 2 3\n4 5 6\n"
SINGLE_HG = "9 1 3\n1 2 3\n"
# four edges that read like two colluding pairs: {1,2,3} is covered by
# (0,1) and by (2,3) with empty intersection
PLANTED_IPPS_HG = "9 4 3\n1 2 4\n1 2 7\n3 5 6\n3 8 9\n"
CBC_BAD_HG = "6 5 3 multi\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n4 5 6\n"
CBC_OK_HG = "6 3 3 multi\n1 2 3\n1 2 3\n1 2 3\n"


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


def test_construct_certificate_is_checked_once(tmp_path, monkeypatch):
    # the certificate file carries the verdict construct() already checked
    calls = []
    real = freeness.check_profile

    def counting(*args, **kwargs):
        calls.append(args[1].tag)
        return real(*args, **kwargs)

    monkeypatch.setattr(freeness, "check_profile", counting)
    monkeypatch.setattr(builder, "check_profile", counting)
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "32",
               "--seed", "1", "--out", "g.hg"])
    assert rc == 0
    assert calls == ["ladder"]
    cert = json.loads((tmp_path / "g.cert.json").read_text())
    h = parse_hg((tmp_path / "g.hg").read_text())
    assert cert["verdict"] == real(h, freeness.ladder_profile(3, 3, 6)).to_report()


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
    # the 20 triples on 6 points: 90 pairs share two points (Berge 2-cycles)
    triples = itertools.combinations(range(1, 7), 3)
    (tmp_path / "k6.hg").write_text("6 20 3\n" + "".join(f"{a} {b} {c}\n" for a, b, c in triples))
    assert main(["verify", "k6.hg", "--berge", "3", "--budget", "89"]) == 3
    assert "BudgetExceeded" in capsys.readouterr().err
    assert main(["verify", "k6.hg", "--berge", "3", "--budget", "90"]) == 4


def test_scaling_csv_and_slope(tmp_path, capsys):
    rc = main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64",
               "--trials", "2", "--seed", "1", "--out", "s.csv", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["slope"] == 1.702547
    assert report["medians"] == {"32": 18.5, "48": 38.0, "64": 60.0}
    text = (tmp_path / "s.csv").read_bytes().decode()
    lines = text.split("\r\n")
    assert lines[0] == "n,trial,seed,yield,runtime_ms"
    assert lines[1] == "32,0,1,18,"  # no --timings: runtime column empty
    assert lines[-2] == "summary,slope=1.702547,target=1.500000,residual=0.000658,points=3"


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
    args = build_parser().parse_args(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64"])
    assert args.jobs == 2


def test_scaling_timings_fill_the_column(tmp_path):
    main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48,64",
          "--trials", "1", "--seed", "1", "--out", "t.csv", "--timings"])
    row = (tmp_path / "t.csv").read_bytes().decode().split("\r\n")[1]
    assert row.split(",")[4] != ""


def test_scaling_needs_three_points(capsys):
    rc = main(["scaling", "--r", "3", "--e", "3", "--v", "6", "--n", "32,48",
               "--trials", "1", "--out", "s.csv"])
    assert rc == 1
    assert "3 distinct n" in capsys.readouterr().err


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


def test_cbc_construct(tmp_path, capsys):
    rc = main(["cbc", "construct", "--r", "3", "--e", "5", "--n", "24",
               "--seed", "1", "--out", "c.hg"])
    assert rc == 0
    assert "servers" in capsys.readouterr().out
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
    # a production-size construct: .hg and trace bytes recorded before the
    # level-2 sweep, the entangled-pair sweep and the exchange pass were
    # rewritten, so a faster stage must not change what the builder keeps
    rc = main(["construct", "--r", "3", "--e", "3", "--v", "6", "--n", "384",
               "--seed", "2", "--out", "g.hg"])
    assert rc == 0
    pinned = {
        "g.hg": "714108cc2249dc7364fcd576615d789e8ae6fe67b1fdd4147076e787a1998012",
        "g.trace.json": "344217208fd54f8141996e8b96a18a20aa5da6c2d05682b288bd270b2559db80",
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


def test_lrc_build_counting_bound(capsys):
    assert main(["lrc", "build", "--q", "23", "--r", "10", "--d", "11", "--m", "3"]) == 2
    assert "InsufficientYield" in capsys.readouterr().err


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


def test_lrc_verify_missing_file(capsys):
    assert main(["lrc", "verify", "nope.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


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


def test_env_json_flag(tmp_path, monkeypatch, capsys):
    (tmp_path / "d.hg").write_text(DISJOINT_HG)
    monkeypatch.setenv("SPARSEHG_JSON", "1")
    assert main(["verify", "d.hg", "--e", "2", "--v", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True
