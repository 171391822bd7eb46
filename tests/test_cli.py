import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

import vermasig
from vermasig import bethe, cli
from vermasig.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# the four exact README commands, and the file holding each one's --json report
README_EXACT = (
    ("decompose.json", "decompose --weights -1/2,-1/2 --max-level 6"),
    ("classify.json", "classify --type 4,1,1,1,1 --verify"),
    ("quantum_a.json", "quantum --a 2,2 --t 1/23 --all-levels"),
    ("quantum_q1.json", "quantum --q1 --weights 23/10,17/10,-2/5 --max-level 8"),
)
# the n = 2 branch of classify, pinned beside them
GOLDEN_N2 = (("classify_n2.json", "classify --type 1,2,-2 --bound 12 --verify"),)


@pytest.mark.parametrize("golden, command", README_EXACT + GOLDEN_N2)
def test_readme_exact_commands_print_the_golden_reports(capsys, golden, command):
    code, out, _ = run(capsys, command.split() + ["--json"])
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        assert (code, out) == (0, fh.read())


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


@pytest.mark.parametrize("floors", ["5", "1,2"])
def test_classify_type_needs_two_factor_floors(capsys, floors):
    # ExplicitType alone holds the two-factor rule; the command reports its message
    code, out, err = run(capsys, ["classify", "--type", floors])
    assert (code, out) == (2, "")
    assert "need at least two tensor factors" in err


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
        ["classify", "--weights", "1,2"],
    ],
)
def test_quantum_rejects_unused_or_negative_flags(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_quantum_answers_a_level_above_an_undefined_one(capsys):
    # at t = 1/4, [4] = 0: level 1 of V_0 x V_4 is undefined, level 2 is not
    code, out, _ = run(capsys, ["quantum", "--a", "0,4", "--t", "1/4", "-m", "2", "--json"])
    assert code == 0
    assert [(r["m"], r["sgn"]) for r in json.loads(out)["rows"]] == [(2, 0)]
    code, out, err = run(capsys, ["quantum", "--a", "0,4", "--t", "1/4", "--all-levels"])
    assert (code, out) == (2, "")
    assert "vanishes at t = 1/4" in err


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


def test_out_that_cannot_be_opened_is_a_usage_error(capsys, tmp_path):
    # the report is not printed when --out (here a directory) cannot be opened
    argv = ["decompose", "--weights", "-1/2,-1/2", "--max-level", "1", "--out", str(tmp_path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot open --out:")


def test_reader_that_closes_the_pipe_early_is_not_an_error(tmp_path):
    # about 200 kB of table, more than a pipe holds: the print meets the closed pipe
    out_path = tmp_path / "report.txt"
    argv = ["decompose", "--weights", "-1/2,-1/2", "--max-level", "6000", "--out", str(out_path)]
    src = os.path.dirname(os.path.dirname(vermasig.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "vermasig.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")
    report = out_path.read_text()
    assert report.startswith(first.decode()) and len(report.splitlines()) == 6003


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
    # cli imports the pool from concurrent.futures when a sweep runs in parallel
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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


@pytest.mark.parametrize(
    "sweep, reason", [("m=0..2", "levels start at 1"), ("m=3..2", "empty range")]
)
def test_bethe_sweep_range_errors_say_why(capsys, sweep, reason):
    argv = ["bethe", "--weights", "-1/2,-3/4,-7/5", "--z", "0,1,3", "--sweep", sweep]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"bad --sweep {sweep!r}: {reason}" in err


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


def test_bethe_builds_each_config_once_and_checks_the_weights_once(capsys, monkeypatch):
    built, checks, jobs = [], [], []
    init, check = bethe.MasterConfig.__post_init__, bethe.ensure_generic_tuple
    job = cli._bethe_level_job
    monkeypatch.setattr(bethe.MasterConfig, "__post_init__", lambda c: built.append(c.m) or init(c))
    monkeypatch.setattr(bethe, "ensure_generic_tuple", lambda w: checks.append(w) or check(w))
    monkeypatch.setattr(cli, "_bethe_level_job", lambda j: jobs.append(len(checks)) or job(j))
    code, _, _ = run(capsys, SWEEP)
    assert code == 0
    assert built == [1, 2]
    assert jobs[0] == 1  # one weight check before the first job
    # a usage error still comes before any output, and before any job
    jobs.clear()
    argv = ["bethe", "--weights", "2,-1/2,-7/5", "--z", "0,1,3", "--sweep", "m=1..2"]
    assert run(capsys, argv) == (2, "", "error: weight 2 is a nonnegative integer\n")
    assert jobs == []


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


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--weights", "1/2,1/2", "--max-level", "2"],
        ["quantum", "--q1", "--weights", "1/2,1/2", "--max-level", "2"],
        ["classify", "--weights", "1/2,1/2"],
    ],
)
def test_nongeneric_total_is_named(capsys, argv):
    # neither weight is 1; their sum is
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: total weight 1 is a nonnegative integer\n"


def fresh_interpreter(argv):
    """Exit code and stdout of one CLI call in a new Python process."""
    src = os.path.dirname(os.path.dirname(vermasig.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    script = "import sys; from vermasig.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=False
    )
    return proc.returncode, proc.stdout


def test_import_leaves_the_process_pool_unloaded():
    # only a parallel sweep (--threads > 1) needs concurrent.futures.process
    src = os.path.dirname(os.path.dirname(vermasig.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, vermasig.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_repeated_main_calls_match_fresh_interpreters(capsys):
    # main builds its parser once per process; no state may leak between calls
    calls = [
        ["bethe", "--weights", "23/10,17/10,-2/5", "--z", "0,1,3", "-m", "2", "--json"],
        ["bethe", "--weights", "-1/2,-3/4,-7/5", "--z", "0,1,3", "--sweep", "m=1..2", "--csv"],
        ["decompose", "--weights", "-1/2,-1/2", "--max-level", "3"],
        ["bethe", "--weights", "1/2,1/3", "--z", "0,1"],  # argparse error: no level
        ["decompose", "--weights", "-1/2,-1/2", "--max-level", "3", "--json", "--csv"],
    ]
    in_process = [run(capsys, argv)[:2] for argv in calls + calls[:1]]
    fresh = [fresh_interpreter(argv) for argv in calls]
    assert in_process == fresh + fresh[:1]
    assert [code for code, _ in fresh] == [0, 0, 0, 2, 2]
