import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest

import assosym
from assosym import cli
from assosym.algebra import codimension, graded_dim, involution_count
from assosym.decomposition import Decomposition

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(assosym.__file__)))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_pretty_golden(capsys):
    code, out, _ = run_cli(capsys, "decompose", "4", "--group", "S")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "P_4 = 3*S^{(4)} + 4*S^{(3,1)} + 2*S^{(2,2)} + 3*S^{(2,1,1)} + 1*S^{(1,1,1,1)}"
    )
    assert "codimension: 29" in lines
    assert "colength: 13" in lines


def test_decompose_alternating_pretty(capsys):
    code, out, _ = run_cli(capsys, "decompose", "5", "--group", "A")
    assert code == 0
    assert out.splitlines()[0] == (
        "P_5 = 5*S_A^{(5)} + 10*S_A^{(4,1)} + 11*S_A^{(3,2)} + 3*S_A^{(3,1,1)+}"
        " + 3*S_A^{(3,1,1)-}"
    )
    assert "total dimension: 136" in out


def test_decompose_json_round_trips_byte_identically(capsys):
    code, out, _ = run_cli(capsys, "decompose", "4", "--group", "S", "--format", "json")
    assert code == 0
    dec = Decomposition.from_json(out)
    assert dec.to_json() == out
    data = json.loads(out)
    assert data["codimension"] == "29"
    assert data["colength"] == "13"
    assert all(isinstance(t["mult"], str) for t in data["terms"])


def test_decompose_csv(capsys):
    code, out, _ = run_cli(capsys, "decompose", "3", "--group", "GL", "--dim", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "partition,sign,mult,dim",
        "3,,2,4",
        "2 1,,2,2",
    ]


def test_decompose_gl_requires_dim(capsys):
    code, _, err = run_cli(capsys, "decompose", "3", "--group", "GL")
    assert code == 1
    assert "--dim" in err


def test_decompose_alternating_schur_table(capsys):
    code, out, _ = run_cli(capsys, "decompose", "3", "--group", "A", "--dim", "3")
    assert code == 0
    assert out.splitlines()[0] == "P_3 = 3*W_A^{(3)} + 2*W_A^{(2,1)+} + 2*W_A^{(2,1)-}"
    assert "total dimension" not in out  # A-Weyl dimensions are not computed


def test_sequences_table(capsys):
    code, out, _ = run_cli(capsys, "sequences", "5", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["1", "2", "7", "29", "136"]
    assert [r[2] for r in rows] == ["1", "2", "5", "13", "32"]
    assert [r[3] for r in rows] == ["1", "2", "4", "10", "26"]


def test_sequences_single_row(capsys):
    code, out, _ = run_cli(capsys, "sequences", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "1,1,1,1"


def test_sequences_cocharacters(capsys):
    code, out, _ = run_cli(capsys, "sequences", "3", "--cocharacters", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    # canonical class order for n=3 is (3), (2,1), (1,1,1)
    assert rows[2]["cocharacter"] == ["1", "1", "7"]


@pytest.mark.parametrize("argv, digest", [
    (("sequences", "25"), "7639339dea90a8b77e6da7fae2e039b9e33b56f1f5ec098635fa957f5600db29"),
    (("sequences", "25", "--format", "csv"),
     "dd096ba18c6b9a633b9cced58bb22e9d825f98971ee0e8845ba592e879f19fc3"),
    (("sequences", "12", "--cocharacters"),
     "4ee843d74ca450992b98d15b9dcfe18ba2f41403cc0d96ac1393ecb34240063b"),
    (("sequences", "12", "--cocharacters", "--format", "csv"),
     "b9279183c4a33093e16681dbd9a0ac97d73d0080cd541896ba05e618449c9348"),
    (("sequences", "12", "--cocharacters", "--format", "json"),
     "24b5eff44d634d1d53290202faa069817aa3a50581f5a4b60d28368240381071"),
])
def test_sequences_output_is_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ((), "c54b086a1f81cea8e9542bb8e57ca45a5449a370de3e1110209ece21c16bf2f1"),
    (("--format", "json"), "b7ecf04ae9596808b1b113bb39034e98e8ccb2d1d0fd692fff9c4f8275bd75c9"),
    (("--format", "csv"), "68c1f5fc08a9cded82a05997de89151f2988dfb6ad0c2a51e47d4c441212cca5"),
    (("--group", "A"), "d5ad7154282e8596c5d9b02e0865ec45cdbc8b2b6e1d83ad12f84189f004e126"),
    (("--group", "A", "--format", "csv"),
     "353b9242dd76e9fc941967c15da9a30c7ee45308f092d5f1a13e29158a280375"),
    (("--group", "A", "--dim", "3"),
     "a613f86699dc524d0e17d382c8e81a0d7a90be22379d5ec64905a564fd52e208"),
    (("--group", "A", "--dim", "3", "--format", "csv"),
     "14d8d144dcf1ecc902e520bcb1eec024af2ffa7913f803af7221478ce1091312"),
    (("--group", "GL", "--dim", "3"),
     "5cfe0c4e3c50b7458154a05c6eb61041aaea43f5c7a1b241ca24d70e0f2153f7"),
    (("--group", "GL", "--dim", "3", "--format", "csv"),
     "71857387c4ce6c2ef85addc4c0fcc8ab3a5d2a19ce2433758f4f459fd1e11f12"),
    (("--group", "GL", "--dim", "3", "--format", "json"),
     "2f71ba3bfc1972c052d5024a52235032ec9e162ae515725a5c2f104485ed1a61"),
])
def test_decompose_output_is_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, "decompose", "20", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sequences_pretty_layout(capsys):
    _, out, _ = run_cli(capsys, "sequences", "25")
    # data rows are stripped, the header keeps the padding of wide columns
    assert out.splitlines()[0] == "n   codimension                 colength        involutions   "
    assert out.splitlines()[25] == "25  15511210043330986017554106  95680443760752  95680443760576"
    _, out, _ = run_cli(capsys, "sequences", "12", "--cocharacters")
    lines = out.splitlines()
    assert lines[0] == "n   codimension  colength  involutions  cocharacter"
    assert lines[3] == "3   7            5         4            (1, 1, 7)"
    assert lines[11] == "11  39918781     35732     35696        -"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int->str digit limit")
def test_sequences_print_integers_past_the_int_str_limit(capsys):
    # 400! has 869 digits, past a 640-digit limit as 1559! is past the default
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "sequences", "400", "--format", "csv")
        assert sys.get_int_max_str_digits() == 640  # the limit is left alone
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert code == 0, err
    n, codim, _, involutions = out.splitlines()[-1].split(",")
    assert n == "400"
    assert Decimal(codim) == codimension(400)
    assert Decimal(involutions) == involution_count(400)


def test_dims_print_integers_past_the_int_str_limit(capsys):
    code, out, err = run_cli(capsys, "dims", "--n", "20000", "--r", "2")
    assert code == 0, err
    assert len(out.strip()) > 4300
    assert Decimal(out) == graded_dim(20000, 2)


def test_dims_graded(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "3", "--r", "2")
    assert code == 0
    assert out.splitlines()[0] == "12"


def test_dims_enumerate_cross_check(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "4", "--r", "2", "--enumerate")
    assert code == 0
    assert "matches the formula" in out


def test_dims_multidegree(capsys):
    code, out, _ = run_cli(capsys, "dims", "--multidegree", "2,1")
    assert code == 0
    assert out.strip() == "4"


def test_dims_zero_part_rejected(capsys):
    code, _, err = run_cli(capsys, "dims", "--multidegree", "2,0")
    assert code == 1
    assert "zero part" in err


def test_dims_requires_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "dims", "--n", "3")
    assert code == 1
    code, _, err = run_cli(capsys, "dims", "--n", "3", "--r", "2", "--multidegree", "2,1")
    assert code == 1


def test_verify_degree_2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2")
    assert code == 0
    assert "PASS: quotient dimension, degree 2: 2 = 2" in out


def test_verify_degree_4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS: quotient dimension, degree 4: 29 = 29"
    assert lines[1].startswith("PASS: irreducible multiplicities, degree 4")


def test_verify_multidegree(capsys):
    code, out, _ = run_cli(capsys, "verify", "--multidegree", "2,1")
    assert code == 0
    assert "PASS: multigraded dimension, degree 2,1: 4 = 4" in out


def test_verify_rejects_a_composite_modulus(capsys):
    for argv in (
        ("verify", "--n", "4", "--prime", "1000000"),
        ("verify", "--n", "3", "--second-prime", "1000000"),
        ("verify", "--multidegree", "4,1,1", "--allow-n6", "--prime", "1000000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "1000000 is not prime" in err


def test_verify_degree_6_needs_opt_in(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "6")
    assert code == 1
    assert "--allow-n6" in err


def test_verify_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli.algebra, "codimension", lambda n: 999)
    code, out, _ = run_cli(capsys, "verify", "--n", "3")
    assert code == 2
    assert "FAIL" in out


def test_verify_dump_matrix(capsys, tmp_path):
    target = tmp_path / "matrix.txt"
    code, _, _ = run_cli(capsys, "verify", "--n", "3", "--dump-matrix", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "12 12"
    assert len(lines) == 49


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "decompose", "4", "--format", "json",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["codimension"] == "29"


def test_config_file_sets_default_format(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "assosym.cfg").write_text("# defaults\nformat=json\n")
    code, out, _ = run_cli(capsys, "decompose", "2")
    assert code == 0
    assert json.loads(out)["n"] == 2
    # explicit flag still wins
    code, out, _ = run_cli(capsys, "decompose", "2", "--format", "csv")
    assert out.startswith("partition,")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("case", ["out", "dump", "config-dir", "config-bytes"])
def test_io_failures_are_usage_errors(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    missing = str(tmp_path / "no-such-dir" / "x")
    argv = ["decompose", "4"]
    if case == "out":
        argv += ["--out", missing]
    elif case == "dump":
        argv = ["verify", "--n", "3", "--dump-matrix", missing]
    elif case == "config-dir":
        (tmp_path / "assosym.cfg").mkdir()
    else:
        (tmp_path / "assosym.cfg").write_bytes(b"format=\xff\xfe\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("assosym: error:")
    assert "Traceback" not in out + err


def test_verify_reports_are_byte_identical_across_hash_seeds(tmp_path):
    outputs = []
    for seed in ("0", "4242"):
        # the child imports the same package as this process, installed or not
        path = os.pathsep.join(filter(None, (SRC_ROOT, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "assosym.cli", "verify", "--n", "3"],
            capture_output=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
