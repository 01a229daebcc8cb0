"""The files the command line reads and writes: elements, states, matrices, tables.

JSON carries complex numbers as {"re": ..., "im": ...} objects so files stay
language-neutral; a state vector is a list of those pairs and a matrix an
array of rows of them.  Two readers take input, a Grassmann element (an
algebra header plus monomial terms) and a state vector; one writer puts out
a matrix.  The element parser rejects a term whose generators repeat or are
out of canonical order, but reads the terms as a sum: they may come in any
order, a repeated monomial's coefficients add up and an exactly zero sum is
dropped.  So files that differ only in term order, split coefficients or
zero terms decode to one element.

Tables come as one column per header name and go out as CSV or, a row at a
time, as JSON.  Cells use the shortest round-trip float representation and
spell a non-finite float "nan", "inf" or "-inf", as a JSON record built from
dataclasses does (:func:`json_fields`).  A CSV table holds float or bool
columns under identifier headers, the tables the command line writes, so no
cell needs quoting; its rows end in a bare newline, so repeated runs are
byte-identical across platforms.
"""

import itertools
import json
import math
import sys
from typing import IO, Any, Iterable, Iterator, Sequence

import numpy as np

from .grassmann import AlgebraSpec, GrassmannElement

# The text of a bool cell.
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


def vector_from_json(data: Any) -> np.ndarray:
    """Decode a list of {"re", "im"} pairs into a vector."""
    if not isinstance(data, list) or not data:
        raise ValueError("expected a non-empty list of entries")
    return np.array([complex_from_json(value) for value in data], dtype=complex)


def _algebra_from_json(data: Any) -> AlgebraSpec:
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
    algebra = _algebra_from_json(data["algebra"])
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


def _check_table(header: Sequence[str], columns: Sequence[Sequence[Any]]) -> None:
    if not header or len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError("expected one column per header name, all of one length")


def _rendered(column: Sequence[Any], kind: set[type]) -> Iterator[str]:
    """Each cell's text: a lookup per cell of a column of ``kind`` {bool},
    else one ``repr`` per distinct value of the float column."""
    if kind == {bool}:
        return map(_BOOL_TEXT.__getitem__, column)
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

    Each column holds only exact ``float`` cells or only exact ``bool`` ones,
    under an identifier header name, so no cell needs quoting and each line
    holds the bytes the csv module writes for it with a ``\\n`` terminator.
    The header, then each block of 256 lines, is rendered (:func:`_rendered`)
    and written in one go.  The caller opens the stream with ``newline=""``
    so that terminator survives untranslated.

    Raises:
        ValueError: Before anything is written, if the header is empty or
            holds a non-identifier, the columns do not match its names one
            to one or differ in length, or a column holds anything else.
    """
    _check_table(header, columns)
    kinds = [set(map(type, column)) for column in columns]
    for name, kind in zip(header, kinds):
        if not (isinstance(name, str) and name.isidentifier()):
            raise ValueError(f"header name {name!r} is not an identifier")
        if not (kind <= {float} or kind == {bool}):
            raise ValueError(f"column {name} must hold only floats or only bools")
    # One write per block, whose texts are all the rendering holds at a time.
    blocks = itertools.chain([[header]], (
        zip(*(_rendered(cells[start : start + 256], kind) for cells, kind in zip(columns, kinds)))
        for start in range(0, len(columns[0]), 256)
    ))
    for rows in blocks:
        stream.write("\n".join(map(",".join, rows)) + "\n")


def write_json(
    stream: IO[str], header: Sequence[str], columns: Sequence[Sequence[Any]]
) -> None:
    """Write ``json.dumps(rows, indent=2) + "\\n"``, one row object at a time.

    Rows are keyed by the header names and hold scalars; a non-finite float
    cell is spelled "nan", "inf" or "-inf", as :func:`json_fields` spells a
    record's.  Raises ValueError if the header is empty, or the columns do
    not match its names one to one or differ in length.
    """
    _check_table(header, columns)
    # The C encoder, with indent=2's layout of a flat object as its separator.
    encode = json.JSONEncoder(separators=(",\n    ", ": "), allow_nan=False).encode
    for start, row in zip(itertools.chain(["[\n"], itertools.repeat(",\n")), zip(*columns)):
        cells = json_fields(zip(header, row))
        stream.write(start + "  {\n    " + encode(cells)[1:-1] + "\n  }")
    stream.write("\n]\n" if len(columns[0]) else "[]\n")
