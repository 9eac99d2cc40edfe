"""Command-line interface: subcommands, exit codes, reproducibility."""

import time

import pytest

from relalg import build_rainbow, efgame, logic, rasfile
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


def test_axioms_ok_on_61_atoms(tmp_path, capsys):
    path = tmp_path / "b87.ras"
    rasfile.dump(build_rainbow(8, 7), path)
    assert main(["axioms", str(path)]) == OK
    assert capsys.readouterr().out.startswith("ok: ")


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


@pytest.mark.parametrize("content,message", [
    (b"\xff\xfe[\x00a\x00", "not UTF-8 text: byte 0: invalid start byte"),
    (b"[atoms]\n1' a b c\n[identity]\n1'\n[converse]\na b\nb c\n[forbidden]\n",
     "line 7: converse of 'b' already given as 'a'"),
])
def test_axioms_unreadable_structure(tmp_path, capsys, content, message):
    """Text that is not UTF-8 and contradicting converse pairs are parse
    errors: exit 2 with the path and the reason, no traceback."""
    bad = tmp_path / "bad.ras"
    bad.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["axioms", str(bad)])
    assert exc.value.code == USAGE
    assert capsys.readouterr().err == f"parse error in {bad}: {message}\n"


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
    out = capsys.readouterr().out
    assert "counterexample: a reply line outlasts every refuter move" in out


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
    out = capsys.readouterr().out
    assert "counterexample: strategy reached a losing position in play 145" in out


def test_efgame_lost_root(ras22, ras32, monkeypatch, capsys):
    # no pair of rainbows loses the root, so the position check is
    # stubbed to lose it
    monkeypatch.setattr(efgame, "position_winner",
                        lambda pos: efgame.PositionVerdict("forall"))
    assert main(["efgame", ras22, ras32, "-n", "0"]) == FAIL
    assert capsys.readouterr().out == (
        "initial position lost\ncounterexample: the initial position is lost\n")


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
    assert "counterexample: the initial position is lost" in capsys.readouterr().out


def test_seurat_many_rounds_exits_at_once(capsys):
    t0 = time.perf_counter()
    assert main(["seurat", "--t", "2", "--t2", "3", "-n", "64"]) == FAIL
    assert time.perf_counter() - t0 < 1
    out = capsys.readouterr().out
    assert "counterexample: strategy reached a losing position in play 1" in out


def test_seurat_solve(capsys):
    assert main(["seurat-solve", "--t", "2", "--t2", "3", "-n", "1"]) == OK
    assert "forall wins" in capsys.readouterr().out
    assert main(["seurat-solve", "--t", "4", "--t2", "4", "-n", "1"]) == OK
    assert "exists wins" in capsys.readouterr().out


def test_pebble_verified_and_losing(ras22, ras32, capsys):
    assert main(["pebble", ras22, ras32, "--pebbles", "2", "--rounds", "4"]) == OK
    assert "verified (exhaustive)" in capsys.readouterr().out
    assert main(["pebble", ras22, ras32, "--pebbles", "3", "--rounds", "3"]) == FAIL
    out = capsys.readouterr().out
    assert "counterexample: first player forces a non-isomorphic position" in out


def test_pebble_closure_verifies_every_number_of_rounds(ras22, ras32, capsys):
    assert main(["pebble", ras22, ras32, "--pebbles", "2", "--rounds", "50"]) == OK
    out = capsys.readouterr().out
    assert "closed at round 3" in out
    assert ("verified (exhaustive) for every number of rounds with 2 pebbles; "
            "109 states") in out


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # usage errors exit from inside main
        return exc.code


@pytest.mark.parametrize("argv,code,stream,text", [
    ("netgame b32.ras --rounds 4 --verify-exists", FAIL, "out",
     "counterexample: the witness strategy has no reply"),
    ("efgame b41.ras b51.ras -n 1", OK, "out",
     "verified (exhaustive): 1536 plays, no losing position"),
    ("efgame b41.ras b51.ras -n 2", USAGE, "err", "exhaustive mode supports n <= 1"),
    ("efgame b22.ras b41.ras -n 1", USAGE, "err", "different red index sets"),
    # a sampled play never repeats an element, so n is capped by each side
    ("efgame b41.ras b51.ras -n 600 --mode sampled --seed 0", USAGE, "err",
     "n = 600 exceeds the 512 elements of side A"),
    # a spent state budget is inconclusive, not a verdict
    ("efgame b41.ras b51.ras -n 1 --budget 35", INCONCLUSIVE, "out",
     "inconclusive: state budget"),
    ("efgame b41.ras b51.ras -n 1 --budget 36", OK, "out",
     "verified (exhaustive): 1536 plays, no losing position; 36 position classes checked"),
    # zero rounds decide the root alone, on algebras of any size
    ("efgame b13.ras b23.ras -n 0", OK, "out",
     "verified (exhaustive): 1 plays, no losing position; 1 position classes checked"),
    ("efgame b41.ras b51.ras -n 1 --budget -1", USAGE, "err",
     "argument --budget: invalid count -1: must be at least 0"),
    # a reply the strategy cannot give loses the play, with no traceback
    ("efgame b22.ras b32.ras -n 2 --mode sampled --samples 200 --seed 0", FAIL, "out",
     "| exists: strategy failure: palette 0: need 3 of 2 points\n"
     "counterexample: strategy reached a losing position in play 2"),
    ("seurat --t 4 --t2 4 -n 2 --mode sampled --samples 50 --seed 1", OK, "out",
     "verified (sampled): 50 plays survived"),
    ("seurat --t 4 --t2 4 -n 1 --mode sampled", USAGE, "err", "--seed"),
    ("seurat --t 2 --t2 3 -n 1", FAIL, "out",
     "counterexample: strategy reached a losing position in play 2"),
    # sampled plays take any number of rounds; the exact searches refuse
    # a round count that their recursion cannot reach
    ("seurat --t 4 --t2 4 -n 2000 --mode sampled --seed 1 --samples 3", OK, "out",
     "verified (sampled): 3 plays survived"),
    ("seurat --t 4 --t2 4 -n 2000", USAGE, "err",
     "exhaustive mode supports n <= 256; use sampled"),
    ("seurat-solve --t 4 --t2 4 -n 2000", USAGE, "err",
     "the exact solver supports n <= 256"),
    # negative or empty counts are usage errors, not tracebacks or hangs
    ("seurat --t 4 --t2 4 -n -1", USAGE, "err",
     "argument -n: invalid count -1: must be at least 0"),
    ("eval b22.ras --atleast 0", USAGE, "err",
     "argument --atleast: invalid count 0: must be at least 1"),
    ("rainbow --s 0 --t 2 --out x.ras", USAGE, "err",
     "argument --s: invalid count 0: must be at least 1"),
    # a structure over 64 atoms, or an unwritable output path
    ("rainbow --s 8 --t 8 --out x.ras", USAGE, "err", "too many atoms (76 > 64)"),
    ("rainbow --s 2 --t 2 --out missing/x.ras", USAGE, "err",
     "cannot write missing/x.ras: "),
    ("seurat-solve --t 4 --t2 4 -n -1", USAGE, "err",
     "argument -n: invalid count -1: must be at least 0"),
    ("netgame b22.ras --rounds -1 --verify-exists", USAGE, "err",
     "argument --rounds: invalid count -1: must be at least 0"),
])
def test_verdict_exit_codes(tmp_path, monkeypatch, capsys, argv, code, stream, text):
    for s, t in ((2, 2), (3, 2), (4, 1), (5, 1), (1, 3), (2, 3)):
        rasfile.dump(build_rainbow(s, t), tmp_path / f"b{s}{t}.ras")
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv.split()) == code
    assert text in getattr(capsys.readouterr(), stream)


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


def test_eval_budget_flag(ras22, capsys):
    # B(2,2) has 2^10 = 1024 elements
    assert main(["eval", ras22, "--atleast", "10", "--budget", "1024"]) == OK
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval", ras22, "--atleast", "10", "--budget", "1023"]) == INCONCLUSIVE
    assert capsys.readouterr().out.strip() == (
        "inconclusive: element budget 1023 is below the algebra's 2^10 elements")


def test_eval_atleast_at_the_grid_cap(ras32, capsys):
    # B(3,2) has 11 atoms: its two-variable grid of (2^11)^2 bindings is
    # exactly the grid cap
    assert (1 << 11) ** 2 == logic.GRID_MAX_BITS
    assert main(["eval", ras32, "--atleast", "11"]) == OK
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval", ras32, "--atleast", "11", "--budget", "2047"]) == INCONCLUSIVE
    assert capsys.readouterr().out.strip() == (
        "inconclusive: element budget 2047 is below the algebra's 2^11 elements")


def test_eval_over_budget_stops_at_once(tmp_path, capsys):
    # 61 atoms: 2^61 elements, refused before any of them is built
    path = tmp_path / "b87.ras"
    rasfile.dump(build_rainbow(8, 7), path)
    t0 = time.monotonic()
    assert main(["eval", str(path), "--formula", "A x . x ; id = x"]) == INCONCLUSIVE
    elapsed = time.monotonic() - t0
    out = capsys.readouterr()
    assert out.out.startswith("inconclusive: element budget 65536 ")
    assert out.err == ""
    assert elapsed < 1.0  # nearly all of it reads the 61-atom file


def test_eval_rejects_free_variables(ras22, capsys):
    assert main(["eval", ras22, "--formula", "x = 0"]) == USAGE
    assert "free variables" in capsys.readouterr().err


def test_eval_parse_error(ras22, capsys):
    assert main(["eval", ras22, "--formula", "x ="]) == USAGE


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["netgame"])  # missing required arguments
    assert exc.value.code == USAGE
