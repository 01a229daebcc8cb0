"""Serialization of algebra elements, matrices, and reports.

JSON carries complex numbers as {"re": ..., "im": ...} objects so files stay
language-neutral; matrices are arrays of rows of those pairs.  Grassmann
elements serialize as an algebra header plus monomial terms in canonical
order.  The parser rejects a term whose generators repeat or are out of
canonical order, but reads the terms as a sum: they may come in any order,
a repeated monomial's coefficients add up and an exactly zero sum is dropped.
So an encoded element decodes to itself, and an accepted file's round trip
is the same element in canonical form.

Tables come as one column per header name and go out as CSV or, a row at a
time, as JSON.  Cells use the shortest round-trip float representation and
spell a non-finite float "nan", "inf" or "-inf", as a JSON record built from
dataclasses does (:func:`json_fields`); CSV rows end in a bare newline, so
repeated runs are byte-identical across platforms.
"""

import itertools
import json
import math
import re
import sys
from typing import IO, Any, Iterable, Iterator, Sequence

import numpy as np

from .grassmann import AlgebraSpec, GrassmannElement

# The characters that make a cell need quoting.
_NEEDS_QUOTING = re.compile(r'[,"\r\n]')
# The text of a bool cell, as csv_cell writes it.
_BOOL_TEXT = {False: "0", True: "1"}


def complex_to_json(value: complex) -> dict[str, float]:
    """Encode a complex number as a {"re", "im"} pair."""
    value = complex(value)
    return {"re": float(value.real), "im": float(value.imag)}


def complex_from_json(data: Any) -> complex:
    """Decode a {"re", "im"} pair.

    Raises:
        ValueError: If the object is missing either key, carries extras, or
            either part is not a finite JSON number (booleans and strings
            are not numbers).
    """
    if not isinstance(data, dict) or set(data) != {"re", "im"}:
        raise ValueError(f"expected a {{re, im}} object, got {data!r}")
    for key in ("re", "im"):
        part = data[key]
        # The comparison rejects nan, the infinities and ints beyond float.
        if (
            isinstance(part, bool)
            or not isinstance(part, (int, float))
            or not abs(part) <= sys.float_info.max
        ):
            raise ValueError(f"{key} must be a finite number, got {part!r}")
    return complex(float(data["re"]), float(data["im"]))


def json_fields(pairs: Iterable[tuple[str, Any]]) -> dict[str, Any]:
    """``dataclasses.asdict``'s dict with a non-finite float spelled "nan", "inf" or "-inf"."""
    return {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v for k, v in pairs}


def matrix_to_json(matrix: np.ndarray) -> list[list[dict[str, float]]]:
    """Encode a complex matrix as an array of rows of {"re", "im"} pairs."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("expected a two-dimensional matrix")
    return [[complex_to_json(value) for value in row] for row in matrix]


def matrix_from_json(data: Any) -> np.ndarray:
    """Decode an array-of-rows matrix.

    Raises:
        ValueError: If rows are ragged or entries malformed.
    """
    if not isinstance(data, list) or not data:
        raise ValueError("expected a non-empty array of rows")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != len(data[0]) or not row:
            raise ValueError("matrix rows must be non-empty and equally long")
        rows.append([complex_from_json(value) for value in row])
    return np.array(rows, dtype=complex)


def vector_to_json(vector: np.ndarray) -> list[dict[str, float]]:
    """Encode a complex vector as a list of {"re", "im"} pairs."""
    vector = np.asarray(vector, dtype=complex)
    if vector.ndim != 1:
        raise ValueError("expected a one-dimensional vector")
    return [complex_to_json(value) for value in vector]


def vector_from_json(data: Any) -> np.ndarray:
    """Decode a list of {"re", "im"} pairs into a vector."""
    if not isinstance(data, list) or not data:
        raise ValueError("expected a non-empty list of entries")
    return np.array([complex_from_json(value) for value in data], dtype=complex)


def algebra_to_json(algebra: AlgebraSpec) -> dict[str, Any]:
    """Encode an algebra header; the momenta key appears only when carried."""
    if len(algebra.family_sizes) > 2:
        raise ValueError("serialization supports at most two generator families")
    header: dict[str, Any] = {"families": list(algebra.family_sizes)}
    if algebra.momenta_attached:
        header["momenta"] = True
    return header


def algebra_from_json(data: Any) -> AlgebraSpec:
    """Decode an algebra header.

    Raises:
        ValueError: If the families list is malformed (booleans are not
            sizes) or a key is unknown.
    """
    if not isinstance(data, dict) or "families" not in data:
        raise ValueError("algebra header must carry a families list")
    extra = set(data) - {"families", "momenta"}
    if extra:
        raise ValueError(f"unknown algebra keys: {sorted(extra)}")
    families = data["families"]
    if (
        not isinstance(families, list)
        or not families
        or len(families) > 2
        or not all(
            isinstance(n, int) and not isinstance(n, bool) and n > 0
            for n in families
        )
    ):
        raise ValueError("families must be a list of one or two positive sizes")
    momenta = data.get("momenta", False)
    if momenta is not True and momenta is not False:
        raise ValueError("momenta must be a boolean when present")
    return AlgebraSpec(tuple(families), momenta_attached=momenta)


def element_to_json(element: GrassmannElement) -> dict[str, Any]:
    """Encode a Grassmann element with terms in canonical order."""
    terms = [
        {"mono": [generator.name for generator in monomial], **complex_to_json(coefficient)}
        for monomial, coefficient in sorted(element.terms.items())
    ]
    return {"algebra": algebra_to_json(element.algebra), "terms": terms}


def element_from_json(data: Any) -> GrassmannElement:
    """Decode a Grassmann element.

    The monomial tokens must already be in canonical order without repeats;
    out-of-order input is an error, not a request to sort.

    Raises:
        ValueError: On schema violations, tokens that name no generator of
            the algebra (see :attr:`Generator.name`), repeated generators,
            or non-canonical order.
    """
    if not isinstance(data, dict) or set(data) != {"algebra", "terms"}:
        raise ValueError("element must carry exactly the keys algebra and terms")
    algebra = algebra_from_json(data["algebra"])
    if not isinstance(data["terms"], list):
        raise ValueError("terms must be a list")
    generators_of = sorted([*algebra.coordinates(), *algebra.momenta()])
    by_name = {gen.name: gen for gen in generators_of}
    terms = []
    for entry in data["terms"]:
        if not isinstance(entry, dict) or set(entry) != {"mono", "re", "im"}:
            raise ValueError(f"term must carry mono, re, im keys, got {entry!r}")
        if not isinstance(entry["mono"], list):
            raise ValueError("mono must be a list of generator tokens")
        generators = []
        for token in entry["mono"]:
            gen = by_name.get(token) if isinstance(token, str) else None
            if gen is None:
                raise ValueError(
                    f"unknown generator token {token!r}; the algebra has "
                    f"{', '.join(by_name)}"
                )
            generators.append(gen)
        for left, right in zip(generators, generators[1:]):
            if left >= right:
                raise ValueError(
                    f"monomial {entry['mono']} is not in canonical order"
                )
        coefficient = complex_from_json({"re": entry["re"], "im": entry["im"]})
        terms.append((tuple(generators), coefficient))
    return GrassmannElement.from_terms(algebra, terms)


def csv_cell(value: Any) -> str:
    """Render one CSV cell: shortest round-trip floats, "nan" for NaN.

    A string holding a comma, a quote, a carriage return or a newline is
    quoted with its quotes doubled, as the csv module's minimal quoting does;
    any other string is written as it is.
    """
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        if not _NEEDS_QUOTING.search(value):
            return value
        return '"' + value.replace('"', '""') + '"'
    raise ValueError(f"unsupported CSV cell type: {type(value)!r}")


def _check_table(header: Sequence[str], columns: Sequence[Sequence[Any]]) -> None:
    if not header or len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError("expected one column per header name, all of one length")


def _rendered(column: Sequence[Any]) -> Iterator[str]:
    """Each cell's text: one ``repr`` per distinct value of an all-float column,
    a lookup per cell of an all-bool one, else :func:`csv_cell` per cell."""
    types = set(map(type, column))
    if types == {bool}:
        return map(_BOOL_TEXT.__getitem__, column)
    if not types <= {float}:
        return map(csv_cell, column)
    distinct = set(column)  # each nan object is its own member
    # 0.0 and -0.0 are one member but two texts, so a zero takes a repr per cell.
    if len(distinct) == len(column) or 0.0 in distinct:
        return map(repr, column)
    text = dict(zip(distinct, map(repr, distinct)))
    return map(text.__getitem__, column)


def write_csv(
    stream: IO[str], header: Sequence[str], columns: Sequence[Sequence[Any]]
) -> None:
    """Write one column per header name with deterministic, platform-stable bytes.

    The header, then each block of 256 lines, is rendered and written in one
    go; in a block a column of exact ``float`` cells takes one ``repr`` per
    distinct value, one of exact ``bool`` cells a lookup per cell
    (:func:`_rendered`), any other :func:`csv_cell` per cell.  Lines hold the bytes the csv module
    writes for their cells with a ``\\n`` terminator, except that a cell holding
    ``\\r`` is quoted too, so it reads back whole.  The caller opens the stream
    with ``newline=""`` so that terminator survives untranslated.

    Raises:
        ValueError: If the header is empty, or the columns do not match its
            names one to one or differ in length.
    """
    _check_table(header, columns)
    # One write per block, whose texts are all the rendering holds at a time.
    blocks = itertools.chain([[map(csv_cell, header)]], (
        zip(*(_rendered(column[start : start + 256]) for column in columns))
        for start in range(0, len(columns[0]), 256)
    ))
    for rows in blocks:
        lines = map(",".join, rows)
        if len(header) == 1:
            # The csv module quotes a lone empty cell so the line does not read as blank.
            lines = (line or '""' for line in lines)
        stream.write("\n".join(lines) + "\n")


def write_json(
    stream: IO[str], header: Sequence[str], columns: Sequence[Sequence[Any]]
) -> None:
    """Write ``json.dumps(rows, indent=2) + "\\n"``, one row object at a time.

    Rows are keyed by the header names and hold scalars; a non-finite float
    cell is spelled "nan", "inf" or "-inf", as :func:`json_fields` spells a
    record's.  Raises ValueError on a table :func:`write_csv` refuses.
    """
    _check_table(header, columns)
    # The C encoder, with indent=2's layout of a flat object as its separator.
    encode = json.JSONEncoder(separators=(",\n    ", ": "), allow_nan=False).encode
    for start, row in zip(itertools.chain(["[\n"], itertools.repeat(",\n")), zip(*columns)):
        cells = json_fields(zip(header, row))
        stream.write(start + "  {\n    " + encode(cells)[1:-1] + "\n  }")
    stream.write("\n]\n" if len(columns[0]) else "[]\n")
