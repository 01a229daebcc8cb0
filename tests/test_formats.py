"""Tests for JSON and CSV serialization.

Element round trips go through a tests-side encoder, :func:`element_file`,
and are checked property-style with small Gaussian-integer coefficients
(exact floats, so decoded elements compare exactly); the parser's strictness
about canonical order, token names, and schema keys is pinned with explicit
rejection cases.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudospin.formats import (
    complex_from_json,
    complex_to_json,
    element_from_json,
    json_fields,
    matrix_to_json,
    vector_from_json,
    write_csv,
    write_json,
)
from pseudospin.grassmann import AlgebraSpec, GrassmannElement

ALG = AlgebraSpec((3, 3), momenta_attached=True)
ALL_GENS = list(ALG.coordinates()) + list(ALG.momenta())

gaussian_ints = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
words = st.lists(st.sampled_from(ALL_GENS), max_size=4)
elements = st.lists(st.tuples(words, gaussian_ints), max_size=3).map(
    lambda terms: GrassmannElement.from_terms(ALG, terms)
)


def term(mono, re=1.0, im=0.0):
    return {"mono": mono, "re": re, "im": im}


def element_blob(*terms, families=(3,), momenta=False):
    algebra = {"families": list(families)}
    if momenta:
        algebra["momenta"] = True
    return {"algebra": algebra, "terms": list(terms)}


def element_file(f):
    """The element's file: its algebra header and its terms in canonical order."""
    terms = [term([gen.name for gen in mono], c.real, c.imag) for mono, c in sorted(f.terms.items())]
    return element_blob(*terms, families=f.algebra.family_sizes, momenta=f.algebra.momenta_attached)


# ---------------------------------------------------------------------------
# complex numbers, matrices and vectors


def test_complex_round_trip():
    assert complex_from_json(complex_to_json(1.5 - 2.25j)) == 1.5 - 2.25j
    assert complex_to_json(3) == {"re": 3.0, "im": 0.0}
    assert complex_from_json({"re": 3, "im": -1}) == 3 - 1j


@pytest.mark.parametrize(
    "bad",
    [{"re": 1.0}, {"im": 1.0}, {"re": 1.0, "im": 0.0, "x": 2}, [1.0, 2.0], 1.0],
)
def test_complex_rejects_malformed(bad):
    with pytest.raises(ValueError):
        complex_from_json(bad)


@pytest.mark.parametrize(
    "part",
    [None, True, False, "1.0", "nan", [1.0], {}, math.nan, math.inf, -math.inf,
     json.loads("1e400"), 10**400],
)
def test_coefficients_take_only_finite_json_numbers(part):
    # Strings, booleans and null are not numbers; nan, the infinities (1e400
    # parses to inf) and ints beyond float range are not finite.  Element
    # terms decode their coefficients through the same codec.
    for pair in ({"re": part, "im": 0.0}, {"re": 0.0, "im": part}):
        with pytest.raises(ValueError, match="must be a finite number"):
            complex_from_json(pair)
        with pytest.raises(ValueError, match="must be a finite number"):
            element_from_json(element_blob(term([], **pair)))


def read_matrix(rows):
    """A matrix record read back cell by cell; no command reads one."""
    return np.array([[complex_from_json(cell) for cell in row] for row in rows])


def test_matrix_round_trip():
    matrix = np.array([[1.0, 1j], [-0.5, 2.0 - 3.0j]])
    decoded = read_matrix(matrix_to_json(matrix))
    assert np.array_equal(decoded, matrix)
    assert decoded.dtype == complex


def test_matrix_survives_json_text():
    matrix = np.array([[0.1, 0.2], [0.3, 0.4]]) + 1j * np.eye(2)
    text = json.dumps(matrix_to_json(matrix))
    assert np.array_equal(read_matrix(json.loads(text)), matrix)


def test_matrix_to_json_requires_two_dims():
    with pytest.raises(ValueError):
        matrix_to_json(np.zeros(3))


def test_vector_round_trip():
    text = (
        '[{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0},'
        ' {"re": 0.0, "im": -1.0}, {"re": 2.5, "im": 0.5}]'
    )
    decoded = vector_from_json(json.loads(text))
    assert np.array_equal(decoded, [0.0, 1.0, -1j, 2.5 + 0.5j])
    assert decoded.dtype == complex
    with pytest.raises(ValueError):
        vector_from_json([])


# ---------------------------------------------------------------------------
# algebra headers


def test_algebra_round_trip():
    for spec in (
        AlgebraSpec((3,)),
        AlgebraSpec((2, 4)),
        AlgebraSpec((3, 3), momenta_attached=True),
    ):
        assert element_from_json(element_file(GrassmannElement.zero(spec))).algebra == spec


@pytest.mark.parametrize(
    "bad",
    [
        {},
        {"families": []},
        {"families": [3, 3, 3]},
        {"families": [0]},
        {"families": [2.5]},
        {"families": [3], "momenta": 1},
        {"families": [3], "extra": True},
        ["families", 3],
        # JSON true is a Python int; it is no family size.
        {"families": [True, 3]},
        {"families": [3, True]},
    ],
)
def test_algebra_rejects_malformed(bad):
    with pytest.raises(ValueError):
        element_from_json({"algebra": bad, "terms": []})


# ---------------------------------------------------------------------------
# Grassmann elements


@given(elements)
def test_element_round_trip(f):
    decoded = element_from_json(element_file(f))
    assert decoded.algebra == f.algebra
    assert decoded.terms == f.terms


def test_element_round_trip_survives_json_text():
    f = GrassmannElement.from_terms(
        ALG,
        [
            ((ALG.coordinate(0, 0), ALG.momentum(0, 1), ALG.coordinate(1, 2)), 1 - 2j),
            ((), 0.5),
        ],
    )
    text = json.dumps(element_file(f))
    assert element_from_json(json.loads(text)).terms == f.terms


@pytest.mark.parametrize(
    "terms, canonical",
    [
        ([term(["xi1"], 1.0, 2.0), term(["xi1"], 2.0, -1.0)], [term(["xi1"], 3.0, 1.0)]),
        ([term(["xi1"], 0.0), term([], 0.5)], [term([], 0.5)]),
        ([term(["xi1"], 1.0, 2.0), term(["xi1"], -1.0, -2.0)], []),
        ([term(["xi2"]), term(["xi1"], 2.0)], [term(["xi1"], 2.0), term(["xi2"])]),
    ],
    ids=["repeated monomial summed", "zero term dropped", "cancelling terms dropped",
         "terms re-sorted"],
)
def test_accepted_element_files_round_trip_to_canonical_form(terms, canonical):
    # The parser reads the terms as a sum, so these files are accepted although
    # none equals its own round trip; that round trip is a fixed point.
    blob = element_blob(*terms)
    round_trip = element_file(element_from_json(blob))
    assert round_trip != blob
    assert round_trip == element_blob(*canonical)
    assert element_file(element_from_json(round_trip)) == round_trip


def test_element_token_names():
    blob = element_file(
        GrassmannElement.from_terms(
            ALG,
            [((ALG.coordinate(0, 0), ALG.momentum(0, 2), ALG.coordinate(1, 1),
               ALG.momentum(1, 0)), 1.0)],
        )
    )
    assert blob["terms"][0]["mono"] == ["xi1", "pi3", "chi2", "varpi1"]


def test_element_terms_sorted_canonically():
    f = GrassmannElement.from_terms(
        ALG,
        [
            ((ALG.coordinate(1, 0),), 2.0),
            ((), 1.0),
            ((ALG.coordinate(0, 0),), 3.0),
        ],
    )
    monos = [entry["mono"] for entry in element_file(f)["terms"]]
    assert monos == [[], ["xi1"], ["chi1"]]


def test_element_accepts_canonical_mixed_term():
    blob = element_blob(
        term(["xi1", "pi2", "chi1"], re=1.0, im=-2.0),
        term([], re=0.5),
        families=(3, 3),
        momenta=True,
    )
    f = element_from_json(blob)
    assert f.by_mask.get(0, 0.0) == 0.5
    assert len(f.terms) == 2


@pytest.mark.parametrize(
    "mono",
    [
        ["xi2", "xi1"],
        ["xi1", "xi1"],
        ["chi1", "xi1"],
        ["pi1", "xi1"],
    ],
)
def test_element_rejects_non_canonical_order(mono):
    with pytest.raises(ValueError, match="canonical order"):
        element_from_json(
            element_blob(term(mono), families=(3, 3), momenta=True)
        )


@pytest.mark.parametrize(
    "mono, case",
    [
        (["xi0"], "unknown"),
        (["foo1"], "unknown"),
        (["xi" ], "unknown"),
        ([1], "must be a string"),
        (["xi4"], "family size"),
        (["chi1"], "family the algebra lacks"),
        (["pi1"], "momentum-carrying"),
    ],
)
def test_element_rejects_bad_tokens(mono, case):
    # Whatever makes the token bad (the case), the message names the token
    # and every generator name the algebra has.
    with pytest.raises(ValueError) as excinfo:
        element_from_json(element_blob(term(mono), families=(3,)))
    message = str(excinfo.value)
    assert f"token {mono[0]!r};" in message, case
    assert message.endswith("the algebra has xi1, xi2, xi3"), case


@pytest.mark.parametrize(
    "blob",
    [
        {"terms": []},
        {"algebra": {"families": [3]}},
        {"algebra": {"families": [3]}, "terms": [], "extra": 1},
        {"algebra": {"families": [3]}, "terms": {}},
        element_blob({"mono": [], "re": 1.0}),
        element_blob({"mono": [], "re": 1.0, "im": 0.0, "x": 1}),
        element_blob({"mono": "xi1", "re": 1.0, "im": 0.0}),
    ],
)
def test_element_rejects_schema_violations(blob):
    with pytest.raises(ValueError):
        element_from_json(blob)


# ---------------------------------------------------------------------------
# CSV cells and rows


def csv_text(cell):
    """The text of a float or bool cell: its repr, or "1" or "0"."""
    return ("1" if cell else "0") if isinstance(cell, bool) else repr(cell)


def csv_cells(column):
    """The cells ``write_csv`` writes for a one-column table."""
    buffer = io.StringIO()
    write_csv(buffer, ["x"], [column])
    return buffer.getvalue().splitlines()[1:]


def test_csv_cell_formats():
    floats = [0.1, 1.0, float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]
    assert csv_cells(floats) == ["0.1", "1.0", "nan", "inf", "-inf", "-0.0", "5e-324"]
    assert csv_cells([True, False, True]) == ["1", "0", "1"]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_csv_cell_floats_round_trip(x):
    assert float(csv_cells([x])[0]) == x


def test_csv_cell_nan_token_is_parseable():
    assert math.isnan(float(csv_cells([float("nan")])[0]))


@pytest.mark.parametrize(
    "column",
    [["text"], [7], [np.float64(0.25)], [np.float32(0.5)], [np.True_], [0.5, True], [None]],
    ids=["str", "int", "np_float64", "np_float32", "np_bool", "float_and_bool", "none"],
)
def test_write_csv_refuses_cells_other_than_floats_or_bools(column):
    # The command line hands write_csv Python floats and bools only; a numpy
    # scalar would print as np.float64(...), so it is refused, not rendered.
    buffer = io.StringIO()
    with pytest.raises(ValueError, match="column y must hold only floats or only bools"):
        write_csv(buffer, ["x", "y"], [[1.0] * len(column), column])
    assert buffer.getvalue() == ""


@pytest.mark.parametrize(
    "name", ["a,b", 'say "hi"', "", "x y", "1x", 1],
    ids=["comma", "quote", "empty", "space", "digit_first", "int"],
)
def test_write_csv_refuses_header_names_that_are_not_identifiers(name):
    buffer = io.StringIO()
    with pytest.raises(ValueError, match="not an identifier"):
        write_csv(buffer, ["x", name], [[1.0], [2.0]])
    assert buffer.getvalue() == ""
    # write_json keys its rows by any name.
    write_json(buffer, ["x", name], [[1.0], [2.0]])


def test_write_csv_exact_bytes():
    buffer = io.StringIO()
    write_csv(buffer, ["t", "value", "flag"], [[0.5, 1.0], [float("nan"), 0.1], [True, False]])
    assert buffer.getvalue() == "t,value,flag\n0.5,nan,1\n1.0,0.1,0\n"
    # The same table as tuples, the shape `regime-sweep` passes.
    tuples = io.StringIO()
    write_csv(tuples, ["t", "value", "flag"], [(0.5, 1.0), (float("nan"), 0.1), (True, False)])
    assert tuples.getvalue() == buffer.getvalue()


def test_write_csv_deterministic():
    xs = np.linspace(0.0, 1.0, 7).tolist()
    columns = [xs, [x * x for x in xs]]
    first, second = io.StringIO(), io.StringIO()
    write_csv(first, ["x", "y"], columns)
    write_csv(second, ["x", "y"], columns)
    assert first.getvalue() == second.getvalue()


# A small pool of plain floats, so that cells repeat: both zeros, nan, the
# infinities, the smallest subnormal and a few normals.  The nans and zeros
# are drawn as fresh objects too, since a set holds equal objects once.
repeating_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     0.1, -2.5, 1.2345678901234567, 1e300]),
    st.sampled_from(["nan", "-nan", "0.0", "-0.0"]).map(float),
)
# A column's cells: plain floats (rendered one repr per distinct value, nan,
# the infinities and the subnormals included), plain floats from the small
# pool, or plain bools (rendered by lookup).
csv_column_cells = st.sampled_from([st.floats(), repeating_floats, st.booleans()])


@st.composite
def csv_tables(draw):
    header = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
                           min_size=1, max_size=4))
    length = draw(st.integers(0, 40))
    columns = [
        draw(st.lists(draw(csv_column_cells), min_size=length, max_size=length))
        for _ in header
    ]
    return header, columns


@given(csv_tables())
def test_write_csv_matches_the_csv_module(table):
    # Byte reference: the csv module on each cell's text.
    header, columns = table
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(csv_text, row) for row in zip(*columns))
    buffer = io.StringIO()
    write_csv(buffer, header, columns)
    assert buffer.getvalue() == expected.getvalue()


def test_write_csv_header_only():
    buffer = io.StringIO()
    write_csv(buffer, ["a", "b"], [[], ()])
    assert buffer.getvalue() == "a,b\n"


@pytest.mark.parametrize(
    ("header", "columns"),
    [
        (["a", "b"], [[1.0, 2.0]]),
        (["a"], [[1.0], [2.0]]),
        ([], []),
        (["a", "b"], [[1.0], [1.0, 2.0]]),
        (["a", "b", "c"], [[1.0, 2.0], [1.0, 2.0], ["x"]]),
    ],
    ids=["fewer_columns", "more_columns", "no_columns", "unequal_lengths", "short_last"],
)
def test_write_csv_rejects_columns_unlike_the_header(header, columns):
    buffer = io.StringIO()
    with pytest.raises(ValueError, match="one column per header name"):
        write_csv(buffer, header, columns)
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("length", [254, 255, 256, 511, 1000])
def test_write_csv_writes_long_tables_whole(length):
    # Lines go out in blocks; a table ends at a block boundary or inside one.
    values = [k / 7 for k in range(length)]
    for header, columns in ((["x", "flag"], [values, [k % 2 == 0 for k in range(length)]]),
                            (["flag"], [[k % 3 == 0 for k in range(length)]])):
        buffer = io.StringIO()
        write_csv(buffer, header, columns)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(csv_text, row) for row in zip(*columns))
        assert buffer.getvalue() == expected.getvalue()


def test_write_csv_repeated_floats_keep_their_signs():
    # 0.0 == -0.0 and a set holds one of them, yet each keeps its sign; every
    # nan, whatever its sign or object, reads nan.
    column = [0.0, -0.0, 2.5, -0.0, 2.5, float("nan"), float("-nan"), 0.0]
    buffer = io.StringIO()
    write_csv(buffer, ["x"], [column])
    assert buffer.getvalue() == "x\n0.0\n-0.0\n2.5\n-0.0\n2.5\nnan\nnan\n0.0\n"
    buffer = io.StringIO()
    write_csv(buffer, ["x", "y"], [[0.1] * 3, [-0.0] * 3])
    assert buffer.getvalue() == "x,y\n0.1,-0.0\n0.1,-0.0\n0.1,-0.0\n"


json_cells = st.one_of(
    st.floats(),  # nan and the infinities included: written as strings
    repeating_floats,
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)


@st.composite
def json_tables(draw):
    header = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4))
    length = draw(st.integers(0, 6))
    columns = [draw(st.lists(json_cells, min_size=length, max_size=length))
               for _ in header]
    return header, columns


@given(json_tables())
def test_write_json_matches_json_dumps(table):
    header, columns = table
    def spelled(v):
        if not isinstance(v, float) or math.isfinite(v):
            return v
        return "nan" if math.isnan(v) else "inf" if v > 0 else "-inf"

    rows = [{key: spelled(v) for key, v in zip(header, row)} for row in zip(*columns)]
    buffer = io.StringIO()
    write_json(buffer, header, columns)
    assert buffer.getvalue() == json.dumps(rows, indent=2) + "\n"


def test_write_json_exact_bytes():
    buffer = io.StringIO()
    write_json(buffer, ["t", "ok"], [[0.5, float("nan")], [True, False]])
    assert buffer.getvalue() == (
        '[\n  {\n    "t": 0.5,\n    "ok": true\n  },\n'
        '  {\n    "t": "nan",\n    "ok": false\n  }\n]\n'
    )
    empty = io.StringIO()
    write_json(empty, ["t"], [[]])
    assert empty.getvalue() == "[]\n"


@pytest.mark.parametrize(
    ("header", "columns"),
    [([], []), (["a", "b"], [[1.0]]), (["a", "b"], [[1.0], [1.0, 2.0]])],
    ids=["no_columns", "fewer_columns", "unequal_lengths"],
)
def test_write_json_rejects_what_json_cannot_hold(header, columns):
    with pytest.raises(ValueError):
        write_json(io.StringIO(), header, columns)


@pytest.mark.parametrize(
    ("cell", "text"),
    [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")],
    ids=["nan_cell", "infinite_cell", "negative_infinite_cell"],
)
def test_write_json_spells_non_finite_cells(cell, text):
    # One rule for tables and records: write_csv writes the same text, and a
    # verify --out record spells its fields with json_fields.
    buffer = io.StringIO()
    write_json(buffer, ["x"], [[cell]])
    assert buffer.getvalue() == f'[\n  {{\n    "x": "{text}"\n  }}\n]\n'
    csv = io.StringIO()
    write_csv(csv, ["x"], [[cell]])
    assert csv.getvalue() == f"x\n{text}\n"


def test_json_fields_spells_non_finite_floats_as_write_json_does():
    pairs = [("nan", math.nan), ("inf", math.inf), ("ninf", -math.inf), ("zero", -0.0),
             ("big", 1e308), ("n", 3), ("ok", True), ("label", "nan")]
    assert json.dumps(json_fields(pairs), allow_nan=False) == (
        '{"nan": "nan", "inf": "inf", "ninf": "-inf", "zero": -0.0, '
        '"big": 1e+308, "n": 3, "ok": true, "label": "nan"}'
    )
    buffer = io.StringIO()
    write_json(buffer, ["t"], [[math.nan]])
    assert json.loads(buffer.getvalue()) == [json_fields([("t", math.nan)])]
