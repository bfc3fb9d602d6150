import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import pytest

import assosym
from assosym import cli, oracle
from assosym.algebra import (
    _sequences,
    cocharacter,
    codimension,
    graded_dim,
    involution_count,
    sn_decomposition,
)
from assosym.decomposition import Decomposition

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(assosym.__file__)))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# The whole-text builders that the streamed output replaced, kept as references.

def reference_csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def reference_decompose(n, group, dim_v, fmt) -> str:
    symbol, dec, dimension = cli._decompose_result(n, group, dim_v)
    if fmt == "json":
        return json.dumps(dec.to_json_dict(), indent=2) + "\n"
    dims = [dimension(label) for label in dec.terms]
    if fmt == "csv":
        rows = [
            [" ".join(map(str, label.partition)), label.sign, str(mult),
             "" if dim is None else str(dim)]
            for (label, mult), dim in zip(dec.terms.items(), dims)
        ]
        return reference_csv_text(["partition", "sign", "mult", "dim"], rows)
    labels = [label.render() for label in dec.terms]
    terms = [f"{mult}*{symbol}^{{{label}}}" for mult, label in zip(dec.terms.values(), labels)]
    lines = [f"P_{n} = {' + '.join(terms) if terms else '0'}"]
    for label, mult, dim in zip(labels, dec.terms.values(), dims):
        dim_text = "" if dim is None else f", dim {dim}"
        lines.append(f"  {label}: mult {mult}{dim_text}")
    if dec.group == "S":
        lines.append(f"codimension: {sum(m * d for m, d in zip(dec.terms.values(), dims))}")
        lines.append(f"colength: {dec.total_multiplicity()}")
    elif dec.group == "A" and dim_v is None:
        lines.append(f"total dimension: {dec.total_dimension()}")
    elif dec.group == "GL":
        total = sum(m * d for m, d in zip(dec.terms.values(), dims))
        lines.append(f"total dimension (dim V = {dim_v}): {total}")
    return "\n".join(lines) + "\n"


def reference_sequences(max_n, cocharacters, fmt) -> str:
    rows = []
    for n, codim, colength, involutions in _sequences(max_n):
        row = {"n": n, "codimension": str(codim), "colength": str(colength),
               "involutions": str(involutions)}
        if cocharacters and n <= 10:
            row["cocharacter"] = [str(v) for v in cocharacter(n).values]
        rows.append(row)
    if fmt == "json":
        return json.dumps({"rows": rows}, indent=2) + "\n"
    header = ["n", "codimension", "colength", "involutions"]
    table = [[str(row[h]) for h in header] for row in rows]
    if fmt == "csv":
        if cocharacters:
            header.append("cocharacter")
            for record, row in zip(table, rows):
                record.append(" ".join(row.get("cocharacter", [])))
        return reference_csv_text(header, table)
    widths = [max(map(len, col)) for col in zip(header, *table)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))
             + ("  cocharacter" if cocharacters else "")]
    for record, row in zip(table, rows):
        line = "  ".join(v.ljust(w) for v, w in zip(record, widths))
        if cocharacters:
            line += "  " + ("(" + ", ".join(row["cocharacter"]) + ")" if "cocharacter" in row else "-")
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("group, dim_v", [("S", None), ("A", None), ("A", 1), ("A", 2),
                                          ("A", 3), ("GL", 1), ("GL", 2), ("GL", 3),
                                          ("GL", 5)])
def test_decompose_streams_the_reference_bytes(capsys, tmp_path, group, dim_v, fmt):
    for n in (*range(1, 15), 20):
        argv = ["decompose", str(n), "--group", group, "--format", fmt]
        if dim_v is not None:
            argv += ["--dim", str(dim_v)]
        if group == "A" and n == 1:  # A_1 has no decomposition: nothing printed
            assert run_cli(capsys, *argv) == (
                1, "", "assosym: error: alternating decomposition needs n >= 2\n")
            continue
        expected = reference_decompose(n, group, dim_v, fmt)
        assert run_cli(capsys, *argv) == (0, expected, "")
        target = tmp_path / "out.txt"
        assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_text() == expected


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("cocharacters", [False, True])
def test_sequences_stream_the_reference_bytes(capsys, fmt, cocharacters):
    for max_n in (1, 2, 9, 10, 11, 40, 300):
        argv = ["sequences", str(max_n), "--format", fmt]
        if cocharacters:
            argv.append("--cocharacters")
        assert run_cli(capsys, *argv) == (0, reference_sequences(max_n, cocharacters, fmt), "")


@pytest.mark.parametrize("argv, err", [
    (("sequences", "0"), "assosym: error: max_n must be >= 1\n"),
    (("decompose", "30", "--group", "GL"), "assosym: error: --dim is required with --group GL\n"),
    (("decompose", "4.5"), "assosym decompose: error: argument n: invalid int value: '4.5'\n"),
])
def test_usage_errors_print_nothing_and_write_no_file(capsys, tmp_path, argv, err):
    existing, new = tmp_path / "existing.txt", tmp_path / "new.txt"
    existing.write_bytes(b"keep me\n")
    for out in ((), ("--out", str(existing)), ("--out", str(new))):
        try:
            code = cli.main([*argv, *out])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.endswith(err)
        if argv[1] == "4.5":
            assert captured.err.startswith("usage: assosym decompose [-h]")
        else:
            assert captured.err == err
    assert existing.read_bytes() == b"keep me\n"
    assert os.listdir(tmp_path) == ["existing.txt"]


def test_out_failing_part_way_leaves_files_alone(capsys, tmp_path, monkeypatch):
    chunks = Decomposition._json_chunks

    def failing(dec):
        pieces = chunks(dec)
        yield next(pieces)
        yield next(pieces)
        raise OSError("disk full")

    monkeypatch.setattr(Decomposition, "_json_chunks", failing)
    existing, new = tmp_path / "existing.json", tmp_path / "new.json"
    existing.write_bytes(b"keep me\n")
    for target in (existing, new):
        code, out, err = run_cli(capsys, "decompose", "6", "--format", "json",
                                 "--out", str(target))
        assert (code, out, err) == (1, "", "assosym: error: disk full\n")
    assert existing.read_bytes() == b"keep me\n"
    assert os.listdir(tmp_path) == ["existing.json"]  # no new file, no partial file


def test_out_replaces_a_longer_file_with_the_stdout_bytes(capsys, tmp_path):
    argv = ("sequences", "1500", "--cocharacters")
    target = tmp_path / "seq.txt"
    target.write_bytes(b"x" * 13_000_000)
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "5c614ab37bfeb44dcb786233e504c447bfe766534921552dc766717f5566a24e"
    assert os.listdir(tmp_path) == ["seq.txt"]


def test_out_writes_through_a_symlink(capsys, tmp_path):
    _, expected, _ = run_cli(capsys, "decompose", "6", "--format", "json")
    (tmp_path / "data").mkdir()
    real, dangling = tmp_path / "data" / "real.json", tmp_path / "data" / "later.json"
    real.write_bytes(b"x" * 10_000)
    links = tmp_path / "link.json", tmp_path / "dangling.json"
    links[0].symlink_to(real)
    links[1].symlink_to(dangling)
    for link, target in zip(links, (real, dangling)):
        assert run_cli(capsys, "decompose", "6", "--format", "json", "--out", str(link)) \
            == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == expected
    assert sorted(os.listdir(tmp_path / "data")) == ["later.json", "real.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_writes_into_a_fifo(capsys, tmp_path):
    import threading

    _, expected, _ = run_cli(capsys, "sequences", "40", "--cocharacters")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
    reader.start()
    code = run_cli(capsys, "sequences", "40", "--cocharacters", "--out", str(fifo))
    reader.join(timeout=30)
    assert code == (0, "", "")
    assert received == [expected]
    assert os.listdir(tmp_path) == ["pipe"] and fifo.is_fifo()


def test_out_in_a_directory_closed_to_new_files_is_written_in_place(
        capsys, tmp_path, monkeypatch):
    _, expected, _ = run_cli(capsys, "decompose", "5")
    target = tmp_path / "out.txt"
    target.write_bytes(b"x" * 10_000)
    inode = target.stat().st_ino
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert run_cli(capsys, "decompose", "5", "--out", str(target)) == (0, "", "")
    assert target.read_text() == expected
    assert target.stat().st_ino == inode
    assert os.listdir(tmp_path) == ["out.txt"]


def test_sequences_hold_no_table_in_memory(tmp_path):
    # the whole-text builder peaked at 42.5 MB here: 12.4 MB of text, its
    # rows and the encoder's copy
    target = tmp_path / "seq.txt"
    tracemalloc.start()
    try:
        code = cli.main(["sequences", "1500", "--cocharacters", "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert target.stat().st_size == 12_421_281
    assert peak < 2 * 2**20


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


def test_decompose_symmetric_rejects_dim(capsys):
    code, out, err = run_cli(capsys, "decompose", "4", "--group", "S", "--dim", "3")
    assert code == 1 and not out
    assert "--dim" in err and "--group A" in err and "GL" in err


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
    (("sequences", "1500", "--cocharacters"),
     "5c614ab37bfeb44dcb786233e504c447bfe766534921552dc766717f5566a24e"),
])
def test_sequences_output_is_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("20",), "c54b086a1f81cea8e9542bb8e57ca45a5449a370de3e1110209ece21c16bf2f1"),
    (("20", "--format", "json"),
     "b7ecf04ae9596808b1b113bb39034e98e8ccb2d1d0fd692fff9c4f8275bd75c9"),
    (("20", "--format", "csv"),
     "68c1f5fc08a9cded82a05997de89151f2988dfb6ad0c2a51e47d4c441212cca5"),
    (("20", "--group", "A"), "d5ad7154282e8596c5d9b02e0865ec45cdbc8b2b6e1d83ad12f84189f004e126"),
    (("20", "--group", "A", "--format", "csv"),
     "353b9242dd76e9fc941967c15da9a30c7ee45308f092d5f1a13e29158a280375"),
    (("20", "--group", "A", "--dim", "3"),
     "a613f86699dc524d0e17d382c8e81a0d7a90be22379d5ec64905a564fd52e208"),
    (("20", "--group", "A", "--dim", "3", "--format", "csv"),
     "14d8d144dcf1ecc902e520bcb1eec024af2ffa7913f803af7221478ce1091312"),
    (("20", "--group", "GL", "--dim", "3"),
     "5cfe0c4e3c50b7458154a05c6eb61041aaea43f5c7a1b241ca24d70e0f2153f7"),
    (("20", "--group", "GL", "--dim", "3", "--format", "csv"),
     "71857387c4ce6c2ef85addc4c0fcc8ab3a5d2a19ce2433758f4f459fd1e11f12"),
    (("20", "--group", "GL", "--dim", "3", "--format", "json"),
     "2f71ba3bfc1972c052d5024a52235032ec9e162ae515725a5c2f104485ed1a61"),
    (("30", "--group", "A", "--format", "csv"),
     "1798aadecd5dcff7e7622cff263202a69d63b3a0a9c71fb1f9e979fc11fae537"),
])
def test_decompose_output_is_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, "decompose", *argv)
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


def test_sequences_1600_ends_at_the_codimension(capsys):
    code, out, err = run_cli(capsys, "sequences", "1600", "--format", "csv")
    assert (code, err) == (0, "")
    n, codim, _, _ = out.splitlines()[-1].split(",")
    assert n == "1600"
    assert Decimal(codim) == codimension(1600)


def test_dims_print_integers_past_the_int_str_limit(capsys):
    code, out, err = run_cli(capsys, "dims", "--n", "20000", "--r", "2")
    assert code == 0, err
    assert len(out.strip()) > 4300
    assert Decimal(out) == graded_dim(20000, 2)


def test_dims_graded(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "3", "--r", "2")
    assert code == 0
    assert out.splitlines()[0] == "12"


def test_dims_enumerate_is_a_usage_error(capsys):
    # dims prints the closed form alone; verify is the CLI's cross-check
    for mode in (["--n", "3", "--r", "2"], ["--multidegree", "2,1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dims", *mode, "--enumerate"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (1, "")
        assert "unrecognized arguments: --enumerate" in captured.err


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


def test_verify_degree_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1")
    assert code == 0
    assert out == ("PASS: quotient dimension, degree 1: 1 = 1\n"
                   "PASS: irreducible multiplicities, degree 1: 1*S^{(1)} = 1*S^{(1)}\n")


def test_verify_degree_1_is_the_content_1_component(capsys):
    code, out, _ = run_cli(capsys, "verify", "--multidegree", "1")
    assert (code, out) == (0, "PASS: multigraded dimension, degree 1: 1 = 1\n")


@pytest.mark.parametrize("n", ["0", "-2"])
def test_verify_rejects_a_degree_below_1(capsys, n):
    code, out, err = run_cli(capsys, "verify", "--n", n)
    assert (code, out) == (1, "")
    assert "the degree must be positive" in err


def test_verify_degree_6_needs_opt_in(capsys):
    # it no longer does: 42 * 60 = 2520 columns, past the old 1680-column
    # gate, runs with no flag, and --allow-n6 is a hidden no-op
    code, out, _ = run_cli(capsys, "verify", "--multidegree", "3,2,1")
    assert (code, out) == (0, "PASS: multigraded dimension, degree 3,2,1: 75 = 75\n")
    assert run_cli(capsys, "verify", "--multidegree", "3,2,1", "--allow-n6") == (code, out, "")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--allow-n6" not in capsys.readouterr().out


def test_allow_n6_gates_components_past_1680_columns(capsys):
    # the oracle's column guard is the only size policy; the flag gates nothing
    # 42 shapes * 30 arrangements = 1260 columns
    code, out, _ = run_cli(capsys, "verify", "--multidegree", "4,1,1")
    assert (code, out) == (0, "PASS: multigraded dimension, degree 4,1,1: 42 = 42\n")
    assert run_cli(capsys, "verify", "--multidegree", "4,1,1", "--allow-n6") == (code, out, "")
    # 132 * 420 = 55440 columns: past the oracle's limit, flag or not
    for flag in ((), ("--allow-n6",)):
        code, out, err = run_cli(capsys, "verify", "--multidegree", "3,2,1,1", *flag)
        assert (code, out) == (1, "")
        assert "more than 30240 columns" in err


def test_verify_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli.algebra, "codimension", lambda n: 999)
    code, out, _ = run_cli(capsys, "verify", "--n", "3")
    assert code == 2
    assert "FAIL" in out


@pytest.fixture
def fresh_oracle_caches():
    """Empty the certified-system caches before and after, so a patched prime is used."""
    caches = (oracle._system, oracle._level, oracle.quotient_basis)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


@pytest.mark.parametrize("flag", ["--prime", "--second-prime"])
def test_verify_unlucky_prime_is_a_failed_check_in_every_format(
        capsys, monkeypatch, fresh_oracle_caches, flag):
    argv = ("verify", "--multidegree", "4,1")
    # the rank is certified over Q: no flag picks another prime, in any format
    for fmt in ("pretty", "json", "csv"):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, flag, "7", "--format", fmt])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (1, "")
        assert f"unrecognized arguments: {flag} 7" in out.err
    # mod 7 the echelon form of 4,1 does not lift to Q: a failed check, not a dimension
    monkeypatch.setattr(oracle, "DEFAULT_PRIME", 7)
    message = "RankMismatchError: the echelon form mod 7 does not lift to one over Q"
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (2, "")
    assert out == f"FAIL: multigraded dimension, degree 4,1: computed {message}, expected 10\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out) == {"checks": [{"name": "multigraded dimension, degree 4,1",
                                           "expected": "10", "actual": message,
                                           "pass": False}],
                               "all_pass": False}
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 2
    assert list(csv.reader(io.StringIO(out))) == [
        ["check", "expected", "actual", "status"],
        ["multigraded dimension, degree 4,1", "10", message, "fail"]]


def test_verify_unlucky_prime_still_runs_the_multiplicity_check(
        capsys, monkeypatch, fresh_oracle_caches):
    # mod 3 the form of 1^4 does not lift: both checks are reported, each as a failure
    monkeypatch.setattr(oracle, "DEFAULT_PRIME", 3)
    code, out, _ = run_cli(capsys, "verify", "--n", "4", "--format", "json")
    assert code == 2
    message = "RankMismatchError: the echelon form mod 3 does not lift to one over Q"
    assert json.loads(out)["checks"] == [
        {"name": f"{name}, degree 4", "expected": expected, "actual": message, "pass": False}
        for name, expected in [("quotient dimension", "29"),
                               ("irreducible multiplicities", sn_decomposition(4).render())]]


def test_verify_negative_multiplicity_is_a_failed_check_in_every_format(capsys, monkeypatch):
    level = oracle._level
    # dim A(2,1) = 1 < 2 * K_{(3),(2,1)}: the Kostka remainder for (2, 1) is 1 - 2
    monkeypatch.setattr(oracle, "_level", lambda labels: replace(level(labels), dim=1)
                        if labels == (1, 1, 2) else level(labels))
    argv = ("verify", "--n", "3")
    name = "irreducible multiplicities, degree 3"
    expected = sn_decomposition(3).render()
    message = "MultiplicityError: multiplicity of (2, 1) is -1, not a non-negative integer"
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (2, "")
    assert out == (f"PASS: quotient dimension, degree 3: 7 = 7\n"
                   f"FAIL: {name}: computed {message}, expected {expected}\n")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out) == {
        "checks": [{"name": "quotient dimension, degree 3", "expected": "7", "actual": "7",
                    "pass": True},
                   {"name": name, "expected": expected, "actual": message, "pass": False}],
        "all_pass": False}
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 2
    assert list(csv.reader(io.StringIO(out))) == [
        ["check", "expected", "actual", "status"],
        ["quotient dimension, degree 3", "7", "7", "pass"],
        [name, expected, message, "fail"]]


def test_verify_builds_no_brute_force_system(capsys, fresh_oracle_caches):
    code, out, _ = run_cli(capsys, "verify", "--n", "5")
    assert code == 0 and out.count("PASS") == 2
    assert oracle._system.cache_info().currsize == 0
    assert oracle._level.cache_info().currsize > 0


@pytest.mark.parametrize("n", ["7", "0"])
def test_verify_out_leaves_files_alone_on_bad_degree(capsys, tmp_path, n):
    existing, new = tmp_path / "existing.txt", tmp_path / "new.txt"
    existing.write_bytes(b"keep me\n")
    for target in (existing, new):
        code, out, err = run_cli(capsys, "verify", "--n", n, "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("assosym: error:")
    assert existing.read_bytes() == b"keep me\n"
    assert os.listdir(tmp_path) == ["existing.txt"]  # no new file, no partial file


def test_verify_dump_matrix_is_a_usage_error(capsys, tmp_path):
    # the dump is assosym.write_consequence_matrix(n, stream); verify only checks
    target = tmp_path / "matrix.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--n", "3", "--dump-matrix", str(target)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --dump-matrix" in captured.err
    assert not target.exists()


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "decompose", "4", "--format", "json",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["codimension"] == "29"
    assert os.listdir(tmp_path) == ["out.json"]  # no partial file left beside it
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask  # the mode of a new file


CONFIG_KINDS = {
    "json": lambda path: path.write_text("# defaults\nformat=json\n"),
    "dir": lambda path: path.mkdir(),
    "bytes": lambda path: path.write_bytes(b"format=\xff\xfe\n"),
}


@pytest.mark.parametrize("kind", sorted(CONFIG_KINDS))
def test_a_config_file_in_the_working_directory_changes_nothing(
        capsys, tmp_path, monkeypatch, kind):
    # the command line is the only input: an assosym.cfg is not read
    monkeypatch.chdir(tmp_path)
    commands = [["decompose", "4"], ["sequences", "5"], ["dims", "--n", "3", "--r", "2"],
                ["verify", "--n", "3"]]
    expected = [run_cli(capsys, *argv) for argv in commands]
    CONFIG_KINDS[kind](tmp_path / "assosym.cfg")
    assert [run_cli(capsys, *argv) for argv in commands] == expected
    assert [code for code, _, _ in expected] == [0, 0, 0, 0]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [["decompose", "4"], ["verify", "--n", "3"]],
                         ids=["out", "verify-out"])
def test_io_failures_are_usage_errors(capsys, tmp_path, argv):
    missing = str(tmp_path / "no-such-dir" / "x")
    code, out, err = run_cli(capsys, *argv, "--out", missing)
    assert code == 1
    # the file given, not the partial file beside it that the message once named
    assert err == f"assosym: error: [Errno 2] No such file or directory: {missing!r}\n"
    assert "Traceback" not in out + err


def child_env(**extra):
    """The environment of a child importing this process's package, installed or not."""
    path = os.pathsep.join(filter(None, (SRC_ROOT, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_verify_does_not_import_numpy_ma():
    # np.unique(..., axis=0) imports numpy.ma: 10-15 ms of every cold process
    script = ("import sys; from assosym import cli; code = cli.main(['verify', '--n', '5']); "
              "sys.exit(code or 'numpy.ma' in sys.modules)")
    subprocess.run([sys.executable, "-c", script], capture_output=True, env=child_env(),
                   check=True)


def test_verify_reports_are_byte_identical_across_hash_seeds(tmp_path):
    outputs = []
    for seed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-m", "assosym.cli", "verify", "--n", "3"],
            capture_output=True, env=child_env(PYTHONHASHSEED=seed), check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
