"""Tests for expression parsing, printing, and structured input files."""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import pytest

from statepoly import parsing
from statepoly.parsing import (
    IdealFile,
    ParseError,
    _power_work,
    format_polynomial,
    format_rational,
    format_vector,
    format_vectors,
    parse_ideal_file,
    parse_int_vector,
    parse_polynomial,
    parse_rational,
    parse_vector,
    render_json,
    scalar_from_json,
    scalar_to_json,
)
from statepoly.rings import Polynomial

from conftest import assert_same_text, rand_polynomial

ABC = ("a", "b", "c", "d", "e")


def var(i: int, arity: int = 5) -> Polynomial:
    return Polynomial.variable(arity, i)


# ---------------------------------------------------------------------------
# scalars and vectors


def test_rational_round_trip():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert format_rational(7) == "7"
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational(" -5 ") == Fraction(-5)
    with pytest.raises(ParseError):
        parse_rational("2/0")
    with pytest.raises(ParseError):
        parse_rational("abc")


def test_vector_round_trip():
    vec = (Fraction(1), Fraction(-2, 3), Fraction(4))
    assert parse_vector(format_vector(vec)) == vec
    assert parse_vector("1, -2/3 ,4") == vec
    with pytest.raises(ParseError):
        parse_vector("  ,  ")
    assert parse_int_vector("0,2,4") == (0, 2, 4)
    with pytest.raises(ParseError):
        parse_int_vector("1,2/3")


def test_scalar_json_round_trip():
    assert scalar_to_json(Fraction(3, 2)) == "3/2"
    assert scalar_to_json(Fraction(4, 2)) == 2
    assert scalar_to_json(-7) == -7
    assert scalar_from_json("3/2") == Fraction(3, 2)
    assert scalar_from_json("6/3") == 2
    assert scalar_from_json(5) == 5
    for bad in (True, 1.5, None, [1]):
        with pytest.raises(ParseError):
            scalar_from_json(bad)
    values = [Fraction(9, 7), Fraction(-3), 11, Fraction(0)]
    assert [scalar_from_json(scalar_to_json(v)) for v in values] == [
        Fraction(9, 7),
        -3,
        11,
        0,
    ]


def _fraction_route(value) -> str:
    """How every rational became text before ``int`` skipped the
    ``Fraction``: the reference for the fast paths."""
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@pytest.mark.parametrize("seed", range(5))
def test_int_text_fast_paths_match_the_fraction_route(seed):
    rng = random.Random(seed)
    ints = [rng.randrange(-(10**30), 10**30) for _ in range(40)] + [0, -1, 1]
    fractions = [Fraction(rng.randrange(-99, 99), rng.randrange(1, 20)) for _ in range(40)]
    values = ints + fractions + [Fraction(4, 2), Fraction(-4, 2), Fraction(0)]
    # any other number still takes the Fraction route: floats exactly
    for v in values + [0.5, -2.0, 0.1, True]:
        assert format_rational(v) == _fraction_route(v)
    assert format_vector((1, 0.5, Fraction(1, 3))) == "1,1/2,1/3"
    for _ in range(40):
        for pool in (ints, values):
            vec = tuple(rng.choice(pool) for _ in range(rng.randrange(1, 8)))
            assert format_vector(vec) == ",".join(map(_fraction_route, vec))


def test_integers_past_the_string_limit_are_refused_where_they_become_text():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no integer string limit")
    assert format_rational(10**limit - 1) == "9" * limit
    assert render_json([-(10**limit - 1)]) == f"[\n  -{'9' * limit}\n]"
    too_long = 10**limit
    writers = (
        format_rational,
        lambda v: format_rational(Fraction(1, v)),
        lambda v: format_vector((1, -v)),
        lambda v: format_vector((Fraction(1, 2), v)),
        lambda v: scalar_to_json(Fraction(v, 3)),
        render_json,
        lambda v: render_json({"a": [1, v]}),
        lambda v: render_json(["a", v]),
        # a row past the limit in each bulk shape of int rows
        lambda v: render_json([[1, 2], [3, v]]),
        lambda v: render_json(((4095,), (v, -4096))),
        lambda v: render_json({"b": [1], "a": (2, -v)}),
        lambda v: format_vectors([(1, 2), (v, 3)]),
    )
    for write in writers:
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            write(too_long)


# ---------------------------------------------------------------------------
# the JSON writer, against json.dumps(indent=2, sort_keys=True)

# pieces of keys and strings: quotes, backslashes, control characters,
# non-ASCII and keys that sort differently from their insertion order
TEXT_PIECES = ("", "a", "B", "z", "10", "9", '"', "\\", "\t", "\n", "\x00", "\x1f", "\x7f",
               "é", "ß", "\u2028", "😀", " ", "/")


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randrange(4)))


# ints at and around the small-int text table's bound, and past it
EDGE_INTS = (0, 4095, -4095, 4096, -4096, 10**30, -(10**30))


def _random_int(rng: random.Random) -> int:
    pick = rng.randrange(3)
    if pick == 0:
        return rng.randrange(-50, 50)
    if pick == 1:
        return rng.choice(EDGE_INTS)
    return rng.randrange(-(10**12), 10**12)


def _random_row(rng: random.Random):
    """An int row as a list or a tuple; now and then an empty one, or one
    with a bool, None or a str among its ints."""
    row = [_random_int(rng) for _ in range(rng.randrange(1, 6))]
    pick = rng.randrange(10)
    if pick == 0:
        row.insert(rng.randrange(len(row) + 1), rng.choice((True, False, None, "7")))
    elif pick == 1:
        row = []
    return tuple(row) if rng.random() < 0.3 else row


def _random_rows(rng: random.Random):
    """Vertex rows or a witness map: a list or a tuple of rows, or a dict
    of str keys to rows."""
    rows = [_random_row(rng) for _ in range(rng.randrange(1, 6))]
    pick = rng.randrange(3)
    if pick == 0:
        return rows
    if pick == 1:
        return tuple(rows)
    return {_random_text(rng) + str(i): row for i, row in enumerate(rows)}


def _random_document(rng: random.Random, depth: int = 0):
    kind = rng.randrange(10) if depth < 4 else rng.randrange(4, 10)
    if kind == 9:
        return _random_rows(rng)
    if kind == 0:
        return {_random_text(rng): _random_document(rng, depth + 1) for _ in range(rng.randrange(6))}
    if kind == 1:
        return [_random_document(rng, depth + 1) for _ in range(rng.randrange(6))]
    if kind == 2:
        return tuple(_random_document(rng, depth + 1) for _ in range(rng.randrange(4)))
    if kind == 3:  # a vertex or witness row: the all-int path, empty included
        return [_random_int(rng) for _ in range(rng.randrange(8))]
    if kind == 4:
        return rng.choice((-1, 1)) * rng.randrange(10**3999, 10**4000)
    if kind == 5:
        return rng.randrange(-1000, 1000)
    if kind == 6:
        return rng.choice((True, False, None))
    return _random_text(rng)


@pytest.mark.parametrize("seed", range(20))
def test_render_json_matches_json_dumps(seed):
    rng = random.Random(seed)
    for _ in range(30):
        doc = _random_document(rng)
        assert_same_text(render_json(doc), json.dumps(doc, indent=2, sort_keys=True))


def test_large_ints_leave_the_text_table_as_it_is():
    table = parsing._TEXT
    # a row of small ints enters the table, a row that holds a larger one does not
    render_json([list(range(-4095, 4096)), list(range(-5000, 5000))])
    size = len(table)
    assert size == 2 * parsing._TEXT_BOUND - 1
    assert all(-parsing._TEXT_BOUND < v < parsing._TEXT_BOUND for v in table)
    rng = random.Random(11)
    large = [rng.choice((-1, 1)) * rng.randrange(10**6, 10**40) for _ in range(998)] + [10**6, -(10**6)]
    render_json(large)
    render_json([large[i:i + 10] for i in range(0, len(large), 10)])
    render_json({str(i): tuple(large[i:i + 10]) for i in range(0, len(large), 10)})
    format_vectors([large[i:i + 10] for i in range(0, len(large), 10)])
    assert len(table) == size


def test_bulk_rows_write_a_bool_as_json():
    # a bool is never read from the table as the text of 0 or 1
    assert render_json([[1, True], [0, False]]) == json.dumps([[1, True], [0, False]], indent=2)
    assert render_json({"a": [1, True]}) == json.dumps({"a": [1, True]}, indent=2)
    assert format_vector((1, True)) == "1,1"


@pytest.mark.parametrize(
    "doc",
    [{}, [], (), "", 0, -7, True, None, [True, 1, False, 0], [1, None], [[], {}], {"b": [], "a": {}},
     {"z": 1, "a": [1, 2], "é": (3,)}, [10**4000, -(10**4000)], [[1, 2], (3,)], [[1], []],
     {"b": [4096], "a": (-4095, 0)}, ([10**30], [True]), {"a": [1], "b": [None]}],
    ids=lambda doc: repr(doc)[:40],
)
def test_render_json_edge_documents(doc):
    assert_same_text(render_json(doc), json.dumps(doc, indent=2, sort_keys=True))


@pytest.mark.parametrize(
    "doc",
    [1.5, Fraction(1, 2), Fraction(3), {1: 2}, {"a": 1, 2: 3}, {(1,): 2}, [1, 2.0], {"a": [0.0]},
     {1: [1, 2]}, {"a": [1], 2: [3]}, {None: (1,)}, [{1: 2}], {"a": {1: 2}}, [[1], {2: 3}],
     [Fraction(3)], b"x", {1, 2}, 1j, ...],
    ids=repr,
)
def test_render_json_refuses_values_outside_a_document(doc):
    with pytest.raises(TypeError):
        render_json(doc)


# ---------------------------------------------------------------------------
# polynomial expressions


def test_parse_expanded_product():
    a, b, c = var(0), var(1), var(2)
    got = parse_polynomial("b^2*c - a*(a-c)*(a-2*c)", ABC)
    expected = b**2 * c - a * (a - c) * (a - c * 2)
    assert got == expected
    # expansion: b^2 c - a^3 + 3 a^2 c - 2 a c^2
    assert got == b**2 * c - a**3 + a**2 * c * 3 - a * c**2 * 2


def test_parse_single_variable_with_digit():
    names = ("x0", "x1")
    got = parse_polynomial("x0", names)
    assert got == Polynomial.variable(2, 0)


def test_parse_fractional_coefficients():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    got = parse_polynomial("2/3*x^2*y - y^3", ("x", "y"))
    assert got == x**2 * y * Fraction(2, 3) - y**3


def test_parse_leading_coefficient_without_star():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert parse_polynomial("2x", ("x", "y")) == x * 2
    assert parse_polynomial("3(x+y)", ("x", "y")) == x * 3 + y * 3
    assert parse_polynomial("-2x^2", ("x", "y")) == x**2 * -2


def test_parse_constants_and_zero():
    assert parse_polynomial("0", ("x",)) == Polynomial.constant(1, 0)
    assert parse_polynomial("5", ("x",)) == Polynomial.constant(1, 5)
    assert parse_polynomial("1/2", ("x",)) == Polynomial.constant(1, Fraction(1, 2))
    assert parse_polynomial("x - x", ("x",)).is_zero


def test_parse_sign_handling():
    x = Polynomial.variable(1, 0)
    assert parse_polynomial("-x + x", ("x",)).is_zero
    assert parse_polynomial("+x", ("x",)) == x
    assert parse_polynomial("x - -1", ("x",)) == x + Polynomial.constant(1, 1)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x $ y", ("x", "y"))
    assert exc.value.position is not None
    assert "$" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_polynomial("x y", ("x", "y"))
    assert "missing '*'" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_polynomial("x 2", ("x", "y"))
    assert "missing '*'" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_polynomial("x^y", ("x", "y"))
    assert "exponent" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_polynomial("x*z", ("x", "y"))
    assert "unknown variable 'z'" in str(exc.value)
    assert "x, y" in str(exc.value)

    with pytest.raises(ParseError):
        parse_polynomial("(x + y", ("x", "y"))
    with pytest.raises(ParseError):
        parse_polynomial("x)", ("x", "y"))
    with pytest.raises(ParseError):
        parse_polynomial("", ("x", "y"))
    with pytest.raises(ParseError):
        parse_polynomial("   ", ("x", "y"))


def test_format_polynomial_golden():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert format_polynomial(Polynomial.constant(2, 0), ("x", "y")) == "0"
    assert format_polynomial(Polynomial.constant(2, Fraction(-3, 2)), ("x", "y")) == "-3/2"
    poly = x**2 * y * Fraction(2, 3) - y**3 - x + Polynomial.constant(2, 1)
    text = format_polynomial(poly, ("x", "y"))
    assert parse_polynomial(text, ("x", "y")) == poly
    assert "^" in text and "*" in text


def test_print_parse_round_trip_corpus():
    rng = random.Random(20260815)
    names_pool = ("a", "b", "c", "d", "e", "f")
    for _ in range(1000):
        arity = rng.randint(1, 6)
        names = names_pool[:arity]
        poly = rand_polynomial(rng, arity, rng.randint(1, 6), max_terms=5)
        text = format_polynomial(poly, names)
        assert parse_polynomial(text, names) == poly


# ---------------------------------------------------------------------------
# structured input files


def test_parse_single_ideal_file():
    text = """
# homogeneous plane quintic, embedded by a hyperplane section
ring: a, b, c, d, e
ideal:
b*e
a*e
c*d^2 - e^3 - e^2
a^3 - 3*a^2*c - b^2*c + 2*a*c^2   # inline comment
"""
    parsed = parse_ideal_file(text)
    assert parsed.variables == ABC
    assert parsed.blocks is None
    assert parsed.weights is None
    assert set(parsed.sections) == {1}
    gens = parsed.single_ideal_generators()
    assert len(gens) == 4
    a, b, c, d, e = (var(i) for i in range(5))
    assert gens[0] == b * e
    assert gens[2] == c * d**2 - e**3 - e**2


def test_parse_chain_file_sections():
    text = """
ring: a,b,c,d,e
blocks: 0,2,4
weights: 1, 1/2, 0, 1/2, 1
ideal[1]: b^2*c - a^3
ideal[2]:
d^2*c - e^3
d*e
"""
    parsed = parse_ideal_file(text)
    assert parsed.blocks == (0, 2, 4)
    assert parsed.weights == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(0),
        Fraction(1, 2),
        Fraction(1),
    )
    assert set(parsed.sections) == {1, 2}
    assert len(parsed.sections[1]) == 1
    assert len(parsed.sections[2]) == 2
    a, b, c, d, e = (var(i) for i in range(5))
    assert parsed.sections[1][0] == b**2 * c - a**3
    assert parsed.sections[2][1] == d * e


def test_parse_polytope_path_sections():
    text = """
ring: x0,x1,x2,x3
blocks: 0,1,3
polytope[1]: left.json
ideal[2]: x2^2 - x1*x3
"""
    parsed = parse_ideal_file(text)
    assert parsed.polytope_paths == {1: "left.json"}
    assert set(parsed.sections) == {2}
    with pytest.raises(ParseError):
        parsed.single_ideal_generators()


def test_parse_ideal_file_errors():
    with pytest.raises(ParseError) as exc:
        parse_ideal_file("ideal: x\n")
    assert "ring" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_ideal_file("ring: x\nring: y\n")
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        parse_ideal_file("ring: x\nx^2\nideal: x\n")
    assert "outside any section" in str(exc.value)
    assert exc.value.line == 2

    with pytest.raises(ParseError):
        parse_ideal_file("ring: x, x\nideal: x\n")
    with pytest.raises(ParseError):
        parse_ideal_file("ring: x\nideal[0]: x\n")
    with pytest.raises(ParseError):
        parse_ideal_file("ring: x\npolytope[1]:\n")

    empty = parse_ideal_file("ring: x\nideal:\n")
    with pytest.raises(ParseError):
        empty.single_ideal_generators()


@pytest.mark.parametrize(
    "repeat, header",
    [
        ("blocks: 0,1\nblocks: 0,1", "blocks"),
        ("weights: 1,2\nweights: 2,1", "weights"),
        ("polytope[2]: a.json\npolytope[2]: b.json", "polytope[2]"),
        ("polytope: a.json\npolytope[1]: b.json", "polytope[1]"),
    ],
)
def test_a_repeated_header_is_refused(repeat, header):
    with pytest.raises(ParseError) as exc:
        parse_ideal_file(f"ring: x, y\n{repeat}\nideal: x\n")
    assert str(exc.value) == f"duplicate {header} declaration (line 3)"


def test_a_repeated_ideal_section_adds_generators():
    parsed = parse_ideal_file("ring: x, y\nideal[1]: x\npolytope[2]: a.json\nideal[1]: y\n")
    assert [format_polynomial(g, parsed.variables) for g in parsed.sections[1]] == ["x", "y"]
    assert parsed.polytope_paths == {2: "a.json"}


def test_parse_ideal_file_matches_shipped_example():
    with open("data/examples/planecurve_chain.ideal", encoding="utf-8") as handle:
        parsed = parse_ideal_file(handle.read())
    assert parsed.variables == ABC
    assert parsed.blocks == (0, 2, 4)
    assert set(parsed.sections) == {1, 2}


def test_power_of_a_sum_is_refused_before_expanding(monkeypatch):
    # (x+y+z)^N may have every monomial of degree <= N: C(N+3, 3) of them,
    # 1,004,731 > ENUMERATION_LIMIT at N = 180.  Below that its expansion is
    # bounded by its work: 94,380 term products at N = 46 and 103,791 >
    # EXPANSION_WORK_LIMIT at N = 47
    expanded = []
    monkeypatch.setattr(Polynomial, "__pow__", lambda base, e: expanded.append(e) or base)
    xyz = ("x", "y", "z")
    parse_polynomial("(x+y+z)^46", xyz)
    assert expanded == [46]
    for text in ("(x+y+z)^180", "(x+y+z)^200", "x*(x - 2*y)^100000"):
        with pytest.raises(ParseError, match="could expand"):
            parse_polynomial(text, xyz)
    for text in ("(x+y+z)^47", "(x+y+z)^100", "(x+y+z)^179", "(x*x + y*z + 2)^60"):
        with pytest.raises(ParseError, match=r"could take \d+ term products to expand \(> 100000\)"):
            parse_polynomial(text, xyz)
    assert expanded == [46]
    # one-term and zero bases expand cheaply and are never refused
    for text in ("x^100000", "(2*x*y)^100000", "7^3", "(x-x)^100000"):
        parse_polynomial(text, xyz)
    # a many-term base in few variables is bounded by its monomials: 5,710
    # term products here, against 2,047,617 counted by multisets of terms
    parse_polynomial("(1 + x + x*x + x*x*x)^40", ("x",))
    assert expanded == [46, 100000, 100000, 3, 100000, 40]


def test_a_product_is_refused_before_multiplying(monkeypatch):
    # every factor passes the power bound, but a product of 496 by 496 terms
    # would take 246,016 term products, and the running product of three
    # factors, 861 terms by 231, 198,891
    products = []
    multiply = Polynomial.__mul__

    def counted(left, right):
        if isinstance(right, Polynomial):
            products.append((len(left.terms), len(right.terms)))
        return multiply(left, right)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    xyz = ("x", "y", "z")
    for text, sizes, position in (
        ("(x+y+z)^30*(x+y+z)^30", (496, 496), 10),
        ("(x+y+z)^20*(x+y+z)^20*(x+y+z)^20", (861, 231), 21),
    ):
        with pytest.raises(ParseError, match=r"would take \d+ term products \(> 100000\)") as info:
            parse_polynomial(text, xyz)
        assert info.value.position == position
        assert sizes not in products
    assert (231, 231) in products
    products.clear()
    assert len(parse_polynomial("(x+y+z)^30*(x+y+z)^12", xyz).terms) == 946
    assert (496, 91) in products


@pytest.mark.parametrize("seed", range(6))
def test_power_work_bounds_the_products_of_the_expansion(monkeypatch, seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 4)
    products = []
    multiply = Polynomial.__mul__

    def counted(left, right):
        if isinstance(right, Polynomial):
            products.append(len(left.terms) * len(right.terms))
        return multiply(left, right)

    for _ in range(8):
        base = rand_polynomial(rng, arity, 3, max_terms=4)
        if len(base.terms) < 2:
            continue
        exponent = rng.randint(1, 12)
        products.clear()
        monkeypatch.setattr(Polynomial, "__mul__", counted)
        base ** exponent
        monkeypatch.setattr(Polynomial, "__mul__", multiply)
        work = _power_work(len(base.terms), base.degree(), arity, exponent)
        assert sum(products) <= work, (base, exponent)
    # linear forms in distinct variables have every multiset's monomial, so
    # the bound is their exact work
    xyz = [Polynomial.variable(3, i) for i in range(3)]
    for exponent in range(1, 20):
        products.clear()
        monkeypatch.setattr(Polynomial, "__mul__", counted)
        (xyz[0] + xyz[1] + xyz[2]) ** exponent
        monkeypatch.setattr(Polynomial, "__mul__", multiply)
        assert sum(products) == _power_work(3, 1, 3, exponent)


def test_power_of_a_constant_stays_under_the_integer_string_limit(monkeypatch):
    # 9^4506 has 4300 digits and 9^4507 has 4301; the limit is 4300
    monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 4300)
    assert parse_polynomial("x - 9^4506", ("x",)) == parse_polynomial("x", ("x",)) - Polynomial.constant(
        1, 9**4506
    )
    assert parse_polynomial("(1/9)^4506 - 1", ("x",)).terms[(0,)] == Fraction(1, 9**4506) - 1
    for text in ("9^4507", "(1/9)^4507", "(-9)^4507", "10^4300", "7^3000000"):
        with pytest.raises(ParseError, match="more than 4300 digits"):
            parse_polynomial(text, ("x",))
    # a number token of 4300 digits converts; one of 4301 is refused unread
    assert parse_polynomial("9" * 4300 + "/7", ("x",)).terms[(0,)] == Fraction(10**4300 - 1, 7)
    with pytest.raises(ParseError, match="number of 4301 digits"):
        parse_polynomial("x^" + "1" * 4301, ("x",))
    # constants of height one never grow, and non-constant bases are left alone
    assert parse_polynomial("(-1)^4507 + 1^9999999", ("x",)).is_zero
    parse_polynomial("(x*y)^9999999", ("x", "y"))
