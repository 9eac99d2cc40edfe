"""Command-line interface: subcommands, exit codes, reproducibility."""

import pytest

from relalg import build_rainbow, rasfile
from relalg.cli import FAIL, INCONCLUSIVE, OK, USAGE, main


@pytest.fixture
def ras22(tmp_path):
    path = tmp_path / "b22.ras"
    rasfile.dump(build_rainbow(2, 2), path)
    return str(path)


@pytest.fixture
def ras32(tmp_path):
    path = tmp_path / "b32.ras"
    rasfile.dump(build_rainbow(3, 2), path)
    return str(path)


def test_rainbow_writes_loadable_file(tmp_path, capsys):
    out = str(tmp_path / "out.ras")
    assert main(["rainbow", "--s", "2", "--t", "3", "--out", out]) == OK
    assert rasfile.load(out) == build_rainbow(2, 3)
    assert "wrote" in capsys.readouterr().out


def test_axioms_ok(ras22, capsys):
    assert main(["axioms", ras22]) == OK
    assert "ok" in capsys.readouterr().out


def test_axioms_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "/nonexistent.ras"])
    assert exc.value.code == USAGE
    assert "cannot read" in capsys.readouterr().err


def test_axioms_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ras"
    bad.write_text("[atoms]\n")
    with pytest.raises(SystemExit) as exc:
        main(["axioms", str(bad)])
    assert exc.value.code == USAGE
    assert "parse error" in capsys.readouterr().err


def test_predict(ras22, ras32, capsys):
    assert main(["predict", ras22]) == OK
    assert "predicted representable" in capsys.readouterr().out
    assert main(["predict", ras32]) == OK
    assert "not representable" in capsys.readouterr().out


def test_predict_non_rainbow(tmp_path, capsys):
    from relalg.atoms import make_structure

    path = tmp_path / "tiny.ras"
    rasfile.dump(
        make_structure(["1'", "d"], ["1'"], [], [("1'", "1'", "d")]), path
    )
    with pytest.raises(SystemExit) as exc:
        main(["predict", str(path)])
    assert exc.value.code == USAGE


def test_netgame_verify_exists(ras22, capsys):
    assert main(["netgame", ras22, "--rounds", "3", "--verify-exists"]) == OK
    assert "verified (exhaustive)" in capsys.readouterr().out


def test_netgame_verify_refuter(ras32, capsys):
    assert main(["netgame", ras32, "--rounds", "5", "--verify-refuter"]) == OK
    assert "pigeonhole" in capsys.readouterr().out


def test_netgame_refuter_fizzles_on_representable(ras22, capsys):
    assert main(["netgame", ras22, "--rounds", "5", "--verify-refuter"]) == FAIL
    assert "counterexample" in capsys.readouterr().out


def test_netgame_budget_inconclusive(ras22, capsys):
    code = main(["netgame", ras22, "--rounds", "4",
                 "--verify-exists", "--budget", "3"])
    assert code == INCONCLUSIVE
    assert "inconclusive" in capsys.readouterr().out


def test_pebble_budget_inconclusive(ras22, ras32, capsys):
    code = main(["pebble", ras22, ras32, "--pebbles", "2", "--rounds", "4",
                 "--budget", "10"])
    assert code == INCONCLUSIVE
    assert "inconclusive: state budget" in capsys.readouterr().out


def test_efgame_counterexample(ras22, ras32, capsys):
    assert main(["efgame", ras22, ras32, "-n", "1"]) == FAIL
    assert "counterexample" in capsys.readouterr().out


def test_efgame_sampled_requires_seed(ras22, ras32, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["efgame", ras22, ras32, "-n", "1", "--mode", "sampled"])
    assert exc.value.code == USAGE
    assert "--seed" in capsys.readouterr().err


def test_efgame_sampled_transcripts_deterministic(tmp_path, capsys):
    a = tmp_path / "a.ras"
    b = tmp_path / "b.ras"
    rasfile.dump(build_rainbow(4, 2), a)
    rasfile.dump(build_rainbow(5, 2), b)
    args = ["efgame", str(a), str(b), "-n", "1",
            "--mode", "sampled", "--samples", "50", "--seed", "9"]
    assert main(args) == OK
    first = capsys.readouterr().out
    assert main(args) == OK
    assert capsys.readouterr().out == first
    assert "verified (sampled)" in first


def test_seurat_exhaustive(capsys):
    assert main(["seurat", "--t", "4", "--t2", "4", "-n", "1"]) == OK
    assert "verified (exhaustive)" in capsys.readouterr().out


def test_seurat_losing_sizes(capsys):
    assert main(["seurat", "--t", "1", "--t2", "3", "-n", "1"]) == FAIL


def test_seurat_solve(capsys):
    assert main(["seurat-solve", "--t", "2", "--t2", "3", "-n", "1"]) == OK
    assert "forall wins" in capsys.readouterr().out
    assert main(["seurat-solve", "--t", "4", "--t2", "4", "-n", "1"]) == OK
    assert "exists wins" in capsys.readouterr().out


def test_pebble_verified_and_losing(ras22, ras32, capsys):
    assert main(["pebble", ras22, ras32, "--pebbles", "2", "--rounds", "4"]) == OK
    assert "verified (exhaustive)" in capsys.readouterr().out
    assert main(["pebble", ras22, ras32, "--pebbles", "3", "--rounds", "3"]) == FAIL


def test_eval_formula(ras22, capsys):
    assert main(["eval", ras22, "--formula", "A x . x ; id = x"]) == OK
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval", ras22, "--formula", "E x . x < 0"]) == OK
    assert capsys.readouterr().out.strip() == "false"


def test_eval_atleast(ras22, capsys):
    # B(2,2) has 10 atoms
    assert main(["eval", ras22, "--atleast", "10"]) == OK
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval", ras22, "--atleast", "11"]) == OK
    assert capsys.readouterr().out.strip() == "false"


def test_eval_rejects_free_variables(ras22, capsys):
    assert main(["eval", ras22, "--formula", "x = 0"]) == USAGE
    assert "free variables" in capsys.readouterr().err


def test_eval_parse_error(ras22, capsys):
    assert main(["eval", ras22, "--formula", "x ="]) == USAGE


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["netgame"])  # missing required arguments
    assert exc.value.code == USAGE
