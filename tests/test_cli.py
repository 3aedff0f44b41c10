"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sparseconv
from sparseconv import driver
from sparseconv.cli import ALGOS, EXIT_OUT_OF_MEMORY, main
from sparseconv.driver import MultiplicationFailed
from sparseconv.instances import InstanceSpec, gen_instance
from sparseconv.polyfile import parse_poly_file, write_poly_file
from sparseconv.primes import PrimeSamplingError
from sparseconv.vectors import (MAX_COEFF_ABS, MAX_TERMS, SparseVector,
                                make_sparse_vector, poly_multiply_naive)


def write_poly(tmp_path, name, length, pairs):
    path = tmp_path / name
    write_poly_file(make_sparse_vector(length, pairs), path)
    return str(path)


@pytest.fixture()
def telescoping(tmp_path):
    a = write_poly(tmp_path, "a.poly", 4, [(j, 1) for j in range(4)])
    b = write_poly(tmp_path, "b.poly", 4, [(0, -1), (1, 1)])
    return a, b


def test_multiply_prints_output_sparsity(telescoping, tmp_path, capsys):
    a, b = telescoping
    out = tmp_path / "p.poly"
    assert main(["multiply", a, b, "-o", str(out), "--seed", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    got = parse_poly_file(out)
    assert got == make_sparse_vector(8, [(0, -1), (4, 1)])


@pytest.mark.parametrize("algo", ["naive", "dense", "sparse"])
def test_multiply_backends_agree(telescoping, tmp_path, algo, capsys):
    a, b = telescoping
    out = tmp_path / f"{algo}.poly"
    assert main(["multiply", a, b, "--algo", algo, "-o", str(out),
                 "--seed", "3"]) == 0
    assert parse_poly_file(out) == make_sparse_vector(8, [(0, -1), (4, 1)])
    # one more input, which the sparse route reads at N: at n = 2^13 the
    # first budget's prime range already reaches N/2, and each operand has
    # one coefficient 2^20 among 200 of +-1
    rng = np.random.default_rng(100)
    c, d = (write_poly(tmp_path, f"{name}.poly", 1 << 13, zip(
        rng.choice(1 << 13, size=201, replace=False).tolist(),
        [1 << 20] + rng.choice([-1, 1], size=200).tolist())) for name in "cd")
    assert main(["multiply", c, d, "--algo", algo, "-o", str(out),
                 "--seed", "3"]) == 0
    want = tmp_path / "want.poly"
    write_poly_file(poly_multiply_naive(parse_poly_file(c),
                                        parse_poly_file(d)), want)
    assert out.read_bytes() == want.read_bytes()


def reference_bytes(v) -> bytes:
    """The .poly format of v, one f-string per term."""
    return (f"N {v.length}\n" + "".join(
        f"{i} {c}\n" for i, c in zip(v.indices.tolist(),
                                      v.coeffs.tolist()))).encode()


@pytest.mark.parametrize("algo", ALGOS)
def test_gen_and_multiply_write_reference_bytes(tmp_path, algo, capsys):
    # test_multiply_backends_agree compares the CLI's file with
    # write_poly_file's own output; these bytes come from the format itself
    a, b, p = (tmp_path / name for name in ("a.poly", "b.poly", "p.poly"))
    assert main(["gen", "--n", str(1 << 14), "--terms", "160",
                 "--coeff-bound", "100", "--seed", "4",
                 "-o", str(a), "-o2", str(b)]) == 0
    u, v = gen_instance(InstanceSpec(n=1 << 14, terms=160, coeff_bound=100,
                                     cancel_fraction=0.0, seed=4))
    assert a.read_bytes() == reference_bytes(u)
    assert b.read_bytes() == reference_bytes(v)
    assert main(["multiply", str(a), str(b), "--algo", algo, "-o", str(p),
                 "--seed", "4"]) == 0
    want = poly_multiply_naive(u, v)
    assert want.l0 >= 10_000
    assert capsys.readouterr().out == f"{want.l0}\n"
    assert p.read_bytes() == reference_bytes(want)


def test_multiply_same_seed_byte_identical(telescoping, tmp_path, capsys):
    a, b = telescoping
    outs = []
    for name in ("p1.poly", "p2.poly"):
        out = tmp_path / name
        assert main(["multiply", a, b, "--seed", "9", "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("failure", [MultiplicationFailed("gave up"),
                                     PrimeSamplingError("no prime found")])
def test_multiply_gives_up_in_one_line(telescoping, tmp_path, capsys,
                                       monkeypatch, failure):
    def give_up(u, v, rng):
        raise failure
    monkeypatch.setattr(driver, "sparse_multiply", give_up)
    a, b = telescoping
    assert main(["multiply", a, b, "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("multiply failed:") and err.count("\n") == 1
    out = tmp_path / "p.poly"
    assert main(["multiply", a, b, "--seed", "1", "--fallback-dense",
                 "-o", str(out)]) == 0
    assert parse_poly_file(out) == make_sparse_vector(8, [(0, -1), (4, 1)])


@pytest.mark.parametrize("algo", ["dense", "sparse"])
def test_out_of_memory_is_one_line_and_its_own_exit_code(tmp_path, algo):
    # two 4096-term operands at n = 2^25: the dense product needs a 512 MiB
    # float64 array and the sparse driver's pair reading a 512 MiB int64
    # accumulator, more than a 600 MiB address space leaves beside numpy.
    # The limit is set on the child only. Exit 3, not 1, which callers
    # retry with another seed
    resource = pytest.importorskip("resource")
    a, b = str(tmp_path / "a.poly"), str(tmp_path / "b.poly")
    assert main(["gen", "--n", str(1 << 25), "--terms", "4096", "--seed", "1",
                 "-o", a, "-o2", b]) == 0

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    src = os.path.dirname(os.path.dirname(os.path.abspath(sparseconv.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "sparseconv.cli", "multiply", a, b,
         "--algo", algo, "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
        capture_output=True, text=True, timeout=120)
    assert out.returncode == EXIT_OUT_OF_MEMORY == 3
    assert out.stdout == ""
    assert out.stderr.startswith("multiply ran out of memory: Unable to ")
    assert out.stderr.count("\n") == 1


def test_gen_then_multiply_then_verify(tmp_path, capsys):
    a = str(tmp_path / "a.poly")
    b = str(tmp_path / "b.poly")
    p = str(tmp_path / "p.poly")
    assert main(["gen", "--n", "64", "--terms", "8", "--coeff-bound", "20",
                 "--seed", "5", "-o", a, "-o2", b]) == 0
    assert main(["multiply", a, b, "-o", p, "--seed", "5"]) == 0
    assert main(["verify", a, b, p, "--seed", "5"]) == 0
    assert capsys.readouterr().out.strip().endswith("yes")
    # the written product matches the quadratic baseline exactly
    want = poly_multiply_naive(parse_poly_file(a), parse_poly_file(b))
    assert parse_poly_file(p) == want


def test_verify_rejects_wrong_product(telescoping, tmp_path, capsys):
    a, b = telescoping
    wrong = write_poly(tmp_path, "wrong.poly", 8, [(0, -1), (4, 2)])
    assert main(["verify", a, b, wrong, "--seed", "2"]) == 1
    assert capsys.readouterr().out.strip() == "no"


def test_verify_reads_a_product_above_the_operand_bound(tmp_path, capsys):
    # 17 ones times 61681 ones 17 apart is one run of 17 * 61681 =
    # MAX_TERMS + 1 ones: a true product with more terms than an operand
    # may have, which the product file must still be allowed to hold
    k = (MAX_TERMS + 1) // 17
    assert 17 * k == MAX_TERMS + 1
    n = 17 * (k - 1) + 1
    files = []
    for name, length, idx in (("a.poly", n, np.arange(17)),
                              ("b.poly", n, 17 * np.arange(k)),
                              ("p.poly", 2 * n, np.arange(17 * k))):
        files.append(str(tmp_path / name))
        write_poly_file(SparseVector(length, idx, np.ones_like(idx)),
                        files[-1])
    assert main(["verify", *files, "--seed", "3"]) == 0
    assert capsys.readouterr().out.strip() == "yes"


def test_gen_refuses_more_terms_than_the_operand_bound(tmp_path, capsys):
    a, b = (str(tmp_path / name) for name in ("a.poly", "b.poly"))
    assert main(["gen", "--n", str(1 << 21), "--terms", str(MAX_TERMS + 1),
                 "-o", a, "-o2", b]) == 2
    assert f"terms exceed {MAX_TERMS}" in capsys.readouterr().err
    assert not (tmp_path / "a.poly").exists()


@pytest.mark.parametrize("bound", [2_000_000, 10 ** 20])
def test_gen_refuses_coefficient_bounds_beyond_the_envelope(tmp_path, capsys,
                                                            bound):
    # operands `multiply` would refuse are not written: exit 2, one line
    a, b = (str(tmp_path / name) for name in ("a.poly", "b.poly"))
    assert main(["gen", "--n", "8", "--terms", "3", "--coeff-bound",
                 str(bound), "-o", a, "-o2", b]) == 2
    err = capsys.readouterr().err
    assert err == f"error: coeff_bound {bound} exceeds {MAX_COEFF_ABS}\n"
    assert not (tmp_path / "a.poly").exists()


def test_verify_header_only_files(tmp_path, capsys):
    # zero operands and a zero claimed product: 0 * 0 = 0
    a, b, p = (tmp_path / "a.poly", tmp_path / "b.poly", tmp_path / "p.poly")
    for path, header in ((a, "N 4\n"), (b, "N 4\n"), (p, "N 8\n")):
        path.write_text(header, encoding="utf-8")
    assert main(["verify", str(a), str(b), str(p), "--seed", "3"]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_verify_requires_embedded_dimension(telescoping, tmp_path, capsys):
    a, b = telescoping
    short = write_poly(tmp_path, "short.poly", 4, [(0, -1)])
    assert main(["verify", a, b, short, "--seed", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err == "error: product dimension must be 8, got 4\n"


def test_verify_takes_the_smallest_positive_delta(telescoping, tmp_path,
                                                  capsys):
    # 3 / delta overflows at delta = 5e-324, which is in (0, 1)
    a, b = telescoping
    true = write_poly(tmp_path, "true.poly", 8, [(0, -1), (4, 1)])
    wrong = write_poly(tmp_path, "wrong.poly", 8, [(0, -1), (4, 2)])
    assert main(["verify", a, b, true, "--delta", "5e-324", "--seed", "2"]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["verify", a, b, wrong, "--delta", "5e-324",
                 "--seed", "2"]) == 1
    assert capsys.readouterr().out == "no\n"


@pytest.mark.parametrize("delta", ["0", "1", "-0.5", "nan", "inf"])
def test_verify_refuses_a_delta_outside_the_unit_interval(
        telescoping, tmp_path, capsys, delta):
    a, b = telescoping
    true = write_poly(tmp_path, "true.poly", 8, [(0, -1), (4, 1)])
    assert main(["verify", a, b, true, "--delta", delta]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "delta" in captured.err


@pytest.mark.parametrize("cancel", ["0", "0.5", "1"])
def test_gen_and_bench_build_the_same_instance(tmp_path, capsys, cancel):
    flags = ["--n", "512", "--terms", "24", "--coeff-bound", "9",
             "--cancel-fraction", cancel, "--seed", "6"]
    a, b = str(tmp_path / "a.poly"), str(tmp_path / "b.poly")
    assert main(["gen", *flags, "-o", a, "-o2", b]) == 0
    u, v = parse_poly_file(a), parse_poly_file(b)
    capsys.readouterr()
    assert main(["bench", *flags, "--algos", "naive"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["n"], record["s_in"], record["k_out"]) == (
        512, u.l0 + v.l0, poly_multiply_naive(u, v).l0)


def test_missing_file_is_input_error(tmp_path, capsys):
    a = write_poly(tmp_path, "a.poly", 4, [(0, 1)])
    assert main(["multiply", a, str(tmp_path / "nope.poly")]) == 2


def test_malformed_file_is_input_error(tmp_path, capsys):
    a = write_poly(tmp_path, "a.poly", 4, [(0, 1)])
    bad = tmp_path / "bad.poly"
    bad.write_text("N 4\n9 1\n")
    assert main(["multiply", a, str(bad)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_non_ascii_digit_is_input_error(tmp_path, capsys):
    # int() reads U+0663 as 3; the file format does not
    a = write_poly(tmp_path, "a.poly", 8, [(1, 2)])
    bad = tmp_path / "bad.poly"
    bad.write_text("N 8\n\u0663 5\n", encoding="utf-8")
    out = tmp_path / "p.poly"
    assert main(["multiply", str(bad), a, "-o", str(out)]) == 2
    assert "non-integer term" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_coefficient_is_input_error(tmp_path, capsys):
    a = write_poly(tmp_path, "a.poly", 4, [(0, 1)])
    big = tmp_path / "big.poly"
    big.write_text("N 4\n1 9223372036854775808\n")
    for argv in (["multiply", a, str(big)], ["multiply", str(big), a],
                 ["verify", a, a, str(big)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "big.poly:2: " in err
        assert "outside int64" in err


def test_most_negative_int64_coefficient_is_input_error(tmp_path, capsys):
    # np.abs(-2^63) is -2^63 itself, so a magnitude bound read through it
    # passes this operand, and every backend then gives -2^63 at index 0
    # of (-2^63 + x)(3 + x^2), whose coefficient there is -3 * 2^63
    u = tmp_path / "u.poly"
    u.write_text("N 3\n0 -9223372036854775808\n1 1\n")
    v = write_poly(tmp_path, "v.poly", 3, [(0, 3), (2, 1)])
    out = tmp_path / "p.poly"
    for algo in ALGOS:
        for argv in (["multiply", str(u), v], ["multiply", v, str(u)]):
            assert main(argv + ["--algo", algo, "-o", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith("error: ")
            assert "coefficient magnitude exceeds" in captured.err
            assert not out.exists()
    assert main(["verify", str(u), v, v]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_env_seed_default(telescoping, tmp_path, capsys, monkeypatch):
    a, b = telescoping
    out1 = tmp_path / "e1.poly"
    out2 = tmp_path / "e2.poly"
    monkeypatch.setenv("SPARSECONV_SEED", "123")
    assert main(["multiply", a, b, "-o", str(out1)]) == 0
    monkeypatch.delenv("SPARSECONV_SEED")
    assert main(["multiply", a, b, "--seed", "123", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("flag, env, source", [
    (["--seed", "-1"], None, "--seed"),
    ([], "-5", "SPARSECONV_SEED"),
])
def test_negative_seed_is_input_error(telescoping, capsys, monkeypatch,
                                      flag, env, source):
    a, b = telescoping
    if env is not None:
        monkeypatch.setenv("SPARSECONV_SEED", env)
    assert main(["multiply", a, b, *flag]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {source} must be a non-negative integer")


def test_gen_writes_loadable_files(tmp_path, capsys):
    a = str(tmp_path / "a.poly")
    b = str(tmp_path / "b.poly")
    assert main(["gen", "--n", "32", "--terms", "4", "--cancel-fraction",
                 "1.0", "--seed", "7", "-o", a, "-o2", b]) == 0
    u = parse_poly_file(a)
    v = parse_poly_file(b)
    assert u.l0 == 4
    assert v.to_pairs() == [(0, -1), (1, 1)]


def test_bench_emits_ndjson_records(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--n", "128", "--terms", "8", "--repeats", "2",
                 "--algos", "naive,sparse", "--seed", "4",
                 "--json", str(out)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    stored = out.read_text().strip().splitlines()
    assert printed == stored
    records = [json.loads(line) for line in stored]
    assert len(records) == 4
    for r in records:
        assert set(r) == {"algo", "n", "s_in", "k_out", "wall_millis",
                          "seed", "success"}
        assert r["n"] == 128 and r["seed"] == 4
        assert r["success"] is True and r["k_out"] > 0
    assert {r["algo"] for r in records} == {"naive", "sparse"}
    # identical instance means identical sparsity across algos and repeats
    assert len({r["k_out"] for r in records}) == 1


def test_bench_records_a_run_that_gave_up(monkeypatch, capsys):
    # a sparse run that fails explicitly is recorded, not raised: k_out
    # null and success false, with the keys in the order of every record
    def give_up(*args):
        raise MultiplicationFailed("no verified product")

    monkeypatch.setattr(driver, "sparse_multiply", give_up)
    assert main(["bench", "--n", "64", "--terms", "4", "--algos",
                 "sparse,naive", "--seed", "2"]) == 0
    failed, passed = (json.loads(line) for line in
                      capsys.readouterr().out.splitlines())
    assert list(failed) == ["algo", "n", "s_in", "k_out", "wall_millis",
                            "seed", "success"]
    assert failed["k_out"] is None and failed["success"] is False
    assert passed["k_out"] > 0 and passed["success"] is True


def test_bench_rejects_unknown_algo(tmp_path, capsys):
    assert main(["bench", "--n", "64", "--terms", "4",
                 "--algos", "naive,quantum"]) == 2


@pytest.mark.parametrize("extra", [["--repeats", "0"], ["--repeats", "-3"],
                                   ["--algos", ","], ["--algos", " , "]])
def test_bench_rejects_empty_run(capsys, extra):
    assert main(["bench", "--n", "64", "--terms", "4"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_bench_records_deterministic_modulo_timing(tmp_path, capsys):
    def run(name):
        out = tmp_path / name
        assert main(["bench", "--n", "256", "--terms", "16", "--seed", "8",
                     "--algos", "sparse", "--json", str(out)]) == 0
        capsys.readouterr()
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        for r in recs:
            r.pop("wall_millis")
        return recs

    assert run("b1.json") == run("b2.json")
