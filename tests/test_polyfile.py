"""Polynomial file format: round trips, written bytes and line-numbered
diagnostics."""

import os
import subprocess
import sys

import numpy as np
import pytest

import sparseconv
from sparseconv import polyfile
from sparseconv.polyfile import (PolyFileError, parse_poly_file,
                                 write_poly_file)
from sparseconv.vectors import (SparseVector, from_arrays, make_sparse_vector,
                                zero_vector)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def reference_bytes(length, pairs) -> bytes:
    """The file format, one f-string per term."""
    return (f"N {length}\n"
            + "".join(f"{i} {c}\n" for i, c in pairs)).encode()


def raw_vector(length, pairs) -> SparseVector:
    """A SparseVector with the given terms and no envelope check, so the
    writer sees lengths and coefficients beyond the operand envelope."""
    return SparseVector(length, np.array([p[0] for p in pairs], np.int64),
                        np.array([p[1] for p in pairs], np.int64))


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
    # int() reads these; the format does not
    ("N 8\n\u0663 5\n", "non-integer term"),       # ARABIC-INDIC DIGIT THREE
    ("N 8\n1 \uff15\n", "non-integer term"),       # FULLWIDTH DIGIT FIVE
    ("N 16\n1_0 5\n", "non-integer term"),
    ("N 16\n10 5_0\n", "non-integer term"),
    ("N 1_6\n", "bad length"),
    ("N \u0661\u0666\n", "bad length"),
    ("N 8\n5 1\n3 2\n# note\n\n5 4\n", "duplicate index 5"),
    # str.split() reads these as separators; header and term lines are
    # ASCII, checked on the raw line, so leading and trailing ones count
    ("N 8\n3\u30005\n", "non-integer term .*not ASCII"),   # IDEOGRAPHIC SPACE
    ("N 8\n1\u00a02\n", "non-integer term .*not ASCII"),   # NO-BREAK SPACE
    ("N 8\n\u30003 5\n", "non-integer term .*not ASCII"),
    ("N 8\n3 5\u00a0\n", "non-integer term .*not ASCII"),
    ("N\u30008\n", "bad length .*not ASCII"),
    ("N 8\u3000\n", "bad length .*not ASCII"),
])
def test_malformed_files_rejected(tmp_path, body, message):
    path = write_text(tmp_path, "m.poly", body)
    with pytest.raises(PolyFileError, match=message) as info:
        parse_poly_file(path)
    assert info.value.line_no == body.count("\n")


def test_terms_in_any_order_parse_to_canonical(tmp_path):
    path = write_text(tmp_path, "o.poly",
                      "# \u0663 \u00e9t\u00e9 \u2014 1_0\nN 64\n40 -2\n"
                      "# between \u00fc\n3 7\n\n63 1\n# again\n0 -9\n")
    assert parse_poly_file(path) == from_arrays(64, [0, 3, 40, 63],
                                                [-9, 7, -2, 1])


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


EDGE_COEFFS = [1, -1, 9, -9, 10, -10, 99, -99, 100, -100, INT64_MAX, INT64_MIN]


@pytest.mark.parametrize("length,pairs", [
    (1 << 26, [(0, 1), ((1 << 26) - 1, -1)]),
    (1 << 26, list(enumerate(EDGE_COEFFS))),
    (1 << 26, [(i, c) for i, c in zip(range(3, 1 << 26, 5_000_000),
                                      EDGE_COEFFS[::-1])]),
    (100, [(3, -7), (10, -1), (99, INT64_MIN), (7, -100)]),   # all negative
    (1, [(0, 5)]),
    (1 << 26, [((1 << 26) - 1, INT64_MIN)]),
    (1 << 63, [(0, 1), (INT64_MAX, INT64_MAX)]),
    (1, []),
    (8, []),
    (1 << 26, []),
])
def test_written_bytes_match_reference(tmp_path, length, pairs):
    pairs = sorted(pairs)
    path = tmp_path / "v.poly"
    write_poly_file(raw_vector(length, pairs), path)
    assert path.read_bytes() == reference_bytes(length, pairs)


def test_written_bytes_match_reference_over_widths(tmp_path):
    # index and coefficient widths of 1 to 19 digits, both signs, in
    # vectors of 1-40 terms
    rng = np.random.default_rng(24)
    path = tmp_path / "v.poly"
    for _ in range(300):
        length = int(rng.integers(1, 1 << int(rng.integers(1, 63)),
                                  endpoint=True))
        terms = int(rng.integers(1, min(40, length), endpoint=True))
        idx = np.unique(rng.integers(0, length, size=terms, dtype=np.int64))
        bits = rng.integers(0, 64, size=idx.size)
        val = rng.integers(0, INT64_MAX, size=idx.size, dtype=np.int64) >> bits
        val = np.where(rng.random(idx.size) < 0.5, -val - 1, val + 1)
        pairs = list(zip(idx.tolist(), val.tolist()))
        write_poly_file(raw_vector(length, pairs), path)
        assert path.read_bytes() == reference_bytes(length, pairs)


def test_written_bytes_match_reference_across_blocks(tmp_path):
    # about three and a half formatter blocks, whose index and coefficient
    # widths differ from block to block
    block = polyfile._WRITE_BLOCK
    terms = 3 * block + block // 2
    rng = np.random.default_rng(7)
    idx = np.sort(rng.choice(1 << 26, size=terms, replace=False))
    idx[:block] //= 1 << 20
    idx = np.unique(idx)
    val = rng.integers(1, INT64_MAX, size=idx.size, dtype=np.int64)
    val >>= np.repeat(np.array([60, 0, 40, 20]), block)[:idx.size]
    val |= 1
    val[1::3] *= -1
    v = SparseVector(1 << 26, idx, val)
    path = tmp_path / "v.poly"
    write_poly_file(v, path)
    assert path.read_bytes() == reference_bytes(
        v.length, zip(idx.tolist(), val.tolist()))


@pytest.mark.parametrize("indices,coeffs,message", [
    ([3, 3], [1, 2], "increase strictly"),
    ([5, 3], [1, 2], "increase strictly"),
    ([3, 8], [1, 2], "increase strictly"),
    ([-1, 3], [1, 2], "increase strictly"),
    ([1, 3], [1, 0], "zero coefficient"),
    ([1, 3], [1.0, 2.0], "int64 arrays"),
    ([1, 3], [1], "int64 arrays"),
])
def test_non_canonical_vector_is_rejected_before_the_file(
        tmp_path, indices, coeffs, message):
    v = SparseVector(8, np.array(indices, np.int64), np.array(coeffs))
    existing = tmp_path / "existing.poly"
    existing.write_bytes(b"N 4\n0 1\n")
    with pytest.raises(ValueError, match=message):
        write_poly_file(v, existing)
    assert existing.read_bytes() == b"N 4\n0 1\n"
    fresh = tmp_path / "fresh.poly"
    with pytest.raises(ValueError, match=message):
        write_poly_file(v, fresh)
    assert not fresh.exists()


def test_write_memory_at_2_to_the_22_terms(tmp_path):
    # 2^22 terms at length 2^26, with 8-digit indices and coefficients
    # spread over all of int64: a 117 MiB file. On a 2-core Xeon with numpy
    # 2.4 the blocked writer peaks near 214 MiB of address space, 4 MiB
    # above the process before the call; a writer that turned the arrays
    # into two lists of Python ints peaked near 589 MiB, so this 384 MiB
    # limit fails if the writer ever holds per-term Python objects.
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparseconv.__file__)))
    terms = 1 << 22
    path = tmp_path / "big.poly"
    # the vector's arrays, built from this one source in both processes
    make = ("import numpy as np\n"
            f"idx = np.arange({terms}, dtype=np.int64) * 16 + 15\n"
            f"val = np.random.default_rng(0).integers({INT64_MIN}, "
            f"{INT64_MAX}, size={terms}, dtype=np.int64, endpoint=True) | 1\n")
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (384 << 20, 384 << 20))\n"
            + make +
            "from sparseconv.polyfile import write_poly_file\n"
            "from sparseconv.vectors import SparseVector\n"
            f"write_poly_file(SparseVector(1 << 26, idx, val), {str(path)!r})\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    scope = {}
    exec(make, scope)
    idx, val = scope["idx"], scope["val"]
    head = reference_bytes(1 << 26, zip(idx[:1000].tolist(),
                                        val[:1000].tolist()))
    tail = reference_bytes(1 << 26, zip(idx[-1000:].tolist(),
                                        val[-1000:].tolist()))
    tail = tail[len("N 67108864\n"):]
    newlines = 0
    with open(path, "rb") as handle:
        assert handle.read(len(head)) == head
        handle.seek(-len(tail), os.SEEK_END)
        assert handle.read() == tail
        handle.seek(0)
        while chunk := handle.read(1 << 24):
            newlines += chunk.count(b"\n")
    assert newlines == terms + 1
