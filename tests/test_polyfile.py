"""Polynomial file format: round trips and line-numbered diagnostics."""

import numpy as np
import pytest

from sparseconv.polyfile import (PolyFileError, parse_poly_file,
                                 write_poly_file)
from sparseconv.vectors import from_arrays, make_sparse_vector, zero_vector


def write_text(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_round_trip(tmp_path):
    v = make_sparse_vector(100, [(0, -5), (17, 3), (99, 1)])
    path = tmp_path / "v.poly"
    write_poly_file(v, path)
    assert parse_poly_file(path) == v


def test_round_trip_is_byte_stable(tmp_path):
    rng = np.random.default_rng(0)
    idx = np.sort(rng.choice(1000, size=40, replace=False))
    v = from_arrays(1000, idx, rng.integers(-99, 100, size=40) | 1)
    a = tmp_path / "a.poly"
    b = tmp_path / "b.poly"
    write_poly_file(v, a)
    write_poly_file(parse_poly_file(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_zero_vector_file(tmp_path):
    path = tmp_path / "z.poly"
    write_poly_file(zero_vector(8), path)
    assert path.read_text() == "N 8\n"
    assert parse_poly_file(path) == zero_vector(8)


def test_comments_and_blanks_ignored(tmp_path):
    path = write_text(tmp_path, "c.poly",
                      "# a comment\n\nN 16\n# another\n3 7\n\n5 -2\n")
    assert parse_poly_file(path) == make_sparse_vector(16, [(3, 7), (5, -2)])


def test_missing_header(tmp_path):
    path = write_text(tmp_path, "bad.poly", "3 7\n")
    with pytest.raises(PolyFileError, match="header"):
        parse_poly_file(path)
    empty = write_text(tmp_path, "empty.poly", "# nothing\n")
    with pytest.raises(PolyFileError, match="missing header"):
        parse_poly_file(empty)


def test_error_carries_line_number(tmp_path):
    path = write_text(tmp_path, "bad.poly", "N 8\n1 2\nfive nine\n")
    with pytest.raises(PolyFileError) as info:
        parse_poly_file(path)
    assert info.value.line_no == 3
    assert "five nine" in str(info.value)


@pytest.mark.parametrize("body,message", [
    ("N 8\n8 1\n", "out of range"),
    ("N 8\n-1 1\n", "out of range"),
    ("N 8\n3 0\n", "zero coefficient"),
    ("N 8\n3 1\n3 2\n", "duplicate index"),
    ("N 8\n3\n", "expected"),
    ("N 8\n3 1 9\n", "expected"),
    ("N zero\n", "bad length"),
    ("N 0\n", "positive"),
])
def test_malformed_files_rejected(tmp_path, body, message):
    path = write_text(tmp_path, "m.poly", body)
    with pytest.raises(PolyFileError, match=message):
        parse_poly_file(path)


def test_negative_and_large_coefficients(tmp_path):
    path = write_text(tmp_path, "n.poly", "N 4\n0 -1048576\n3 1048576\n")
    v = parse_poly_file(path)
    assert v.to_pairs() == [(0, -1048576), (3, 1048576)]


def test_coefficient_outside_int64_rejected(tmp_path):
    for coeff in (1 << 63, -(1 << 63) - 1):
        path = write_text(tmp_path, "big.poly", f"N 4\n0 1\n1 {coeff}\n")
        with pytest.raises(PolyFileError, match="outside int64") as info:
            parse_poly_file(path)
        assert info.value.line_no == 3
    path = write_text(tmp_path, "edge.poly",
                      f"N 4\n0 {-(1 << 63)}\n1 {(1 << 63) - 1}\n")
    assert parse_poly_file(path).to_pairs() == [(0, -(1 << 63)),
                                                (1, (1 << 63) - 1)]
