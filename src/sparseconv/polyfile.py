"""Plain-text sparse polynomial files.

Format: a header line "N <length>", then one "<index> <coefficient>" line
per nonzero term in ascending index order, every number in decimal
digits with no '_' separators. Header and term lines are ASCII; lines
starting with '#' (free text) and blank lines are ignored. Written files
round-trip exactly.
"""

from __future__ import annotations

import numpy as np

from .vectors import SparseVector, check_canonical, from_arrays

# Terms per block of write_poly_file's formatter. Its arrays take a few
# tens of bytes per term of one block, so this bounds the writer's extra
# memory at every vector size.
_WRITE_BLOCK = 1 << 14


class PolyFileError(ValueError):
    """Malformed polynomial file; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _decimal(text: str) -> int:
    """int(text) of an ASCII token, or ValueError if it holds '_', which
    int() alone also reads ('1_0')."""
    if "_" in text:
        raise ValueError(text)
    return int(text)


def parse_poly_file(path) -> SparseVector:
    length = None
    terms: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not raw.isascii():
                # str.split and int() also read non-ASCII spaces and digits
                what = "bad length" if length is None else "non-integer term"
                text = raw.rstrip("\n")
                raise PolyFileError(path, line_no,
                                    f"{what} {text!r}: not ASCII")
            fields = line.split()
            if length is None:
                if len(fields) != 2 or fields[0] != "N":
                    raise PolyFileError(path, line_no,
                                        "expected header line 'N <length>'")
                try:
                    length = _decimal(fields[1])
                except ValueError:
                    raise PolyFileError(path, line_no,
                                        f"bad length {fields[1]!r}") from None
                if length < 1:
                    raise PolyFileError(path, line_no, "length must be positive")
                continue
            if len(fields) != 2:
                raise PolyFileError(path, line_no,
                                    "expected '<index> <coefficient>'")
            try:
                index = _decimal(fields[0])
                coeff = _decimal(fields[1])
            except ValueError:
                raise PolyFileError(path, line_no,
                                    f"non-integer term {line!r}") from None
            if not 0 <= index < length:
                raise PolyFileError(path, line_no,
                                    f"index {index} out of range [0, {length})")
            if not -(1 << 63) <= coeff < (1 << 63):
                raise PolyFileError(path, line_no,
                                    f"coefficient {coeff} outside int64")
            if coeff == 0:
                raise PolyFileError(path, line_no,
                                    f"zero coefficient at index {index}")
            if index in terms:
                raise PolyFileError(path, line_no, f"duplicate index {index}")
            terms[index] = coeff
    if length is None:
        raise PolyFileError(path, 1, "missing header line 'N <length>'")
    return from_arrays(length, list(terms), list(terms.values()))


def write_poly_file(v: SparseVector, path) -> None:
    """Write v in the format above, with "\\n" line endings in binary mode,
    so the bytes are the same on every platform.

    Raises ValueError, before the path is opened, unless v is canonical
    (check_canonical).
    """
    check_canonical(v, "v")
    with open(path, "wb") as handle:
        handle.write(f"N {v.length}\n".encode())
        for a in range(0, v.l0, _WRITE_BLOCK):
            handle.write(_format_terms(v.indices[a:a + _WRITE_BLOCK],
                                       v.coeffs[a:a + _WRITE_BLOCK]))


def _format_terms(idx: np.ndarray, val: np.ndarray) -> np.ndarray:
    """The lines "<index> <coefficient>\\n" of a nonempty run of canonical
    terms, as one uint8 array.

    Each term gets a row of fixed width: the index digits, a space, a sign
    slot, the coefficient digits and a newline, digits right-aligned to the
    widest value of the run. A mask then drops the leading zeros and the
    sign slot of a positive coefficient.
    """
    # np.abs wraps -2^63 to itself, whose uint64 reading is 2^63
    mag = np.abs(val).view(np.uint64)
    iw = len(str(int(idx[-1])))
    cw = len(str(int(mag.max())))
    lines = np.empty((idx.size, iw + cw + 3), dtype=np.uint8)
    keep = np.ones(lines.shape, dtype=bool)
    _put_digits(idx.astype(np.uint64), lines[:, :iw], keep[:, :iw])
    lines[:, iw] = ord(" ")
    lines[:, iw + 1] = ord("-")
    keep[:, iw + 1] = val < 0
    _put_digits(mag, lines[:, iw + 2:-1], keep[:, iw + 2:-1])
    lines[:, -1] = ord("\n")
    return lines[keep]


def _put_digits(q: np.ndarray, digits: np.ndarray, keep: np.ndarray) -> None:
    """Write the decimal digits of the uint64 values q into the columns of
    digits, right-aligned, as ASCII, one digit position per pass; clear
    keep at every leading zero. The last column is always kept, so 0
    prints as "0"."""
    for col in range(digits.shape[1] - 1, 0, -1):
        rest = q // 10
        digit = q - rest * 10
        digit += ord("0")
        digits[:, col] = digit
        keep[:, col - 1] = rest != 0
        q = rest
    digits[:, 0] = q + ord("0")
