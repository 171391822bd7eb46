import json

import pytest

from vermasig import bethe, cli
from vermasig.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_case1_table(capsys):
    code, out, _ = run(capsys, ["decompose", "--weights", "-1/2,-1/2", "--max-level", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# vermasig")  # config + version ride along
    rows = [line.split() for line in lines[2:]]
    assert [r[3] for r in rows] == ["1", "-1", "1", "-1"]


def test_decompose_n2_all_definite(capsys):
    code, out, _ = run(
        capsys, ["decompose", "--weights", "5/2,-7/10", "--max-level", "5", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["weights"] == ["5/2", "-7/10"]
    assert all(abs(row["sgn"]) == 1 for row in report["rows"])
    assert [row["dim"] for row in report["rows"]] == [1] * 6


def test_decompose_malformed_rational(capsys):
    code, _, err = run(capsys, ["decompose", "--weights", "1/x,-1/2", "--max-level", "2"])
    assert code == 2
    assert "malformed" in err


def test_decompose_nongeneric_reports_constraint(capsys):
    code, _, err = run(capsys, ["decompose", "--weights", "1/2,1/2", "--max-level", "2"])
    assert code == 2
    assert "1" in err


def test_classify_exceptional_type(capsys):
    code, out, _ = run(capsys, ["classify", "--type", "1,0,0,-1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert [(r["level"], r["sign"]) for r in report["rows"]] == [(0, 1), (2, -1)]


def test_classify_case6_exception(capsys):
    code, out, _ = run(capsys, ["classify", "--type", "4,1,1,1,1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert [(r["level"], r["sign"]) for r in report["rows"]] == [
        (0, 1), (1, 1), (2, 1), (4, 1),
    ]


def test_classify_verify_flag(capsys):
    code, out, _ = run(capsys, ["classify", "--type", "3,0,0,0,0", "--verify", "--json"])
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_classify_from_weights(capsys):
    code, out, _ = run(capsys, ["classify", "--weights", "5/2,-7/10", "--bound", "3", "--json"])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 4  # n = 2: every level definite


def test_quantum_generic_levels(capsys):
    code, out, _ = run(capsys, ["quantum", "--a", "2,2", "--t", "1/23", "--all-levels", "--json"])
    assert code == 0
    report = json.loads(out)
    assert [r["m"] for r in report["rows"]] == [0, 1, 2]
    assert [r["dim"] for r in report["rows"]] == [1, 1, 1]
    assert all(abs(r["sgn"]) == 1 for r in report["rows"])


def test_quantum_level_past_top_has_no_summand(capsys):
    code, out, _ = run(capsys, ["quantum", "--a", "2,2", "--t", "1/23", "-m", "3", "--json"])
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["m"], row["dim"], row["sgn"]) == (3, 0, 0)


Q1 = ["quantum", "--q1", "--weights", "1/2,1/3", "--max-level", "2"]
GENERIC_Q = ["quantum", "--a", "2,2", "--t", "1/23", "-m", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        Q1 + ["-m", "0"],
        Q1 + ["--all-levels"],
        Q1 + ["--a", "2,2"],
        Q1 + ["--t", "1/23"],
        GENERIC_Q + ["--weights", "1/2,1/3"],
        GENERIC_Q + ["--max-level", "0"],
        ["quantum", "--q1", "--weights", "1/2,1/3", "--max-level", "-1"],
        ["decompose", "--weights", "1/2,1/3", "--max-level", "-1"],
        # non-generic weights: a weight, or the sum, is a nonnegative integer
        ["quantum", "--q1", "--weights", "1,2", "--max-level", "2"],
        ["quantum", "--q1", "--weights", "1/2,1/2", "--max-level", "2"],
    ],
)
def test_quantum_rejects_unused_or_negative_flags(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_quantum_rejects_fractional_a(capsys):
    code, _, err = run(capsys, ["quantum", "--a", "3/2,2", "--t", "1/23", "--all-levels"])
    assert code == 2
    assert "nonnegative integers" in err


def test_quantum_q1_matches_decompose(capsys):
    args = ["--weights", "23/10,17/10,-2/5", "--max-level", "8"]
    code, out_q, _ = run(capsys, ["quantum", "--q1", *args, "--json"])
    assert code == 0
    code, out_d, _ = run(capsys, ["decompose", *args, "--json"])
    assert code == 0
    q_rows = json.loads(out_q)["rows"]
    d_rows = json.loads(out_d)["rows"]
    assert [r["sgn"] for r in q_rows] == [r["sgn"] for r in d_rows]


def test_bethe_n2(capsys):
    code, out, _ = run(
        capsys,
        ["bethe", "--weights", "-1/2,5/7", "--z", "0,1", "-m", "1", "--json", "--seed", "3"],
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["dim"], row["n_real"], row["n_roots_found"]) == (1, 1, 1)


def test_bethe_sweep_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        ["bethe", "--weights", "-1/2,-3/4,-7/5", "--z", "0,1,3", "--sweep", "m=1..2",
         "--csv", "--out", str(out_path)],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# vermasig")
    assert lines[1].startswith("m,dim,abs_sgn,n_real")
    assert len(lines) == 4
    # all-negative weights: bound tight, every point real
    for line in lines[2:]:
        m, dim, abs_sgn, n_real, found, real = line.split(",")
        assert dim == abs_sgn == n_real == found == real
    assert out_path.read_text() == out


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--type", "4,1,1,1,1", "--verify"],
        ["decompose", "--weights", "5/2,-7/10", "--max-level", "3", "--json"],
    ],
)
def test_out_file_matches_stdout(capsys, tmp_path, argv):
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, argv + ["--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == out
    if "--verify" in argv:
        assert out.endswith("verified: True\n")


SWEEP = ["bethe", "--weights", "-1/2,-3/4,-7/5", "--z", "0,1,3", "--sweep", "m=1..2", "--json"]


def test_bethe_sweep_parallel_matches_serial(capsys):
    code, serial, _ = run(capsys, SWEEP)
    assert code == 0
    code, parallel, _ = run(capsys, SWEEP + ["--threads", "2"])
    assert code == 0
    assert serial == parallel


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs jobs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return list(map(fn, jobs))


@pytest.mark.parametrize("threads, sizes", [("1", []), ("2", [2]), ("64", [2])])
def test_bethe_pool_never_outnumbers_jobs(capsys, monkeypatch, threads, sizes):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    code, out, _ = run(capsys, SWEEP + ["--threads", threads])
    assert code == 0
    assert RecordingPool.sizes == sizes
    assert len(json.loads(out)["rows"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        SWEEP + ["-m", "2"],
        ["quantum", "--a", "2,2", "--t", "1/23", "-m", "1", "--all-levels"],
        # one report format: --json and --csv exclude each other everywhere
        ["decompose", "--weights", "-1/2,-1/2", "--max-level", "2", "--json", "--csv"],
        ["classify", "--type", "1,0,0,-1", "--json", "--csv"],
        GENERIC_Q + ["--json", "--csv"],
        SWEEP + ["--csv"],
    ],
)
def test_either_or_level_flags_reject_both(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "not allowed with" in err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_bethe_rejects_fewer_than_one_thread(capsys, threads):
    code, _, err = run(capsys, SWEEP + ["--threads", threads])
    assert code == 2
    assert "--threads" in err


def test_bethe_builds_one_gaudin_system_per_level(capsys, monkeypatch):
    calls = []
    original = bethe.gaudin_system

    def counting(cfg):
        calls.append(cfg.m)
        return original(cfg)

    monkeypatch.setattr(bethe, "gaudin_system", counting)
    code, _, _ = run(capsys, SWEEP)
    assert code == 0
    assert calls == [1, 2]


def test_bethe_deterministic_given_seed(capsys):
    argv = ["bethe", "--weights", "23/10,17/10,-2/5", "--z", "0,1,3", "-m", "2",
            "--json", "--seed", "11"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "weights, z, m, seed",
    [
        ("29/11,2/11,-11/10", "-7/2,-8/3,3", "4", "711992"),
        ("-4,2/13,-27/11,16/7", "-6,0,4/3,-4", "2", "392794"),
        ("-13/7,-19/11,28/11,23/11", "0,-2,-5/3,-8", "3", "308938"),
    ],
)
def test_bethe_finds_every_point(capsys, weights, z, m, seed):
    # inputs on which a multistart/continuation search fell short of dim
    code, out, _ = run(
        capsys,
        ["bethe", "--weights", weights, "--z", z, "-m", m, "--seed", seed, "--json"],
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["n_roots_found"] == row["dim"]
    assert row["n_roots_real"] == row["n_real"]


def test_usage_error_on_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
