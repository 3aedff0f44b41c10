"""Plain-text sparse polynomial files.

Format: a header line "N <length>", then one "<index> <coefficient>" line
per nonzero term in ascending index order. Lines starting with '#' and
blank lines are ignored. Written files round-trip exactly.
"""

from __future__ import annotations

from .vectors import SparseVector, make_sparse_vector


class PolyFileError(ValueError):
    """Malformed polynomial file; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def parse_poly_file(path) -> SparseVector:
    length = None
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if length is None:
                if len(fields) != 2 or fields[0] != "N":
                    raise PolyFileError(path, line_no,
                                        "expected header line 'N <length>'")
                try:
                    length = int(fields[1])
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
                index = int(fields[0])
                coeff = int(fields[1])
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
            if index in seen:
                raise PolyFileError(path, line_no, f"duplicate index {index}")
            seen.add(index)
            pairs.append((index, coeff))
    if length is None:
        raise PolyFileError(path, 1, "missing header line 'N <length>'")
    return make_sparse_vector(length, pairs)


def write_poly_file(v: SparseVector, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"N {v.length}\n")
        handle.writelines(f"{index} {coeff}\n" for index, coeff
                          in zip(v.indices.tolist(), v.coeffs.tolist()))
