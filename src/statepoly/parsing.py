"""Text formats: polynomials, rationals, vectors, and ideal/chain files.

Polynomial grammar (``*`` is required between factors, except right after
a product's leading number: ``2x``, ``-2x^2`` and ``3(x+y)`` parse as
``2*x``, ``-2*x^2`` and ``3*(x+y)``):

    expr    := ['+'|'-'] product (('+'|'-') product)*
    product := power ('*' power)*
    power   := atom ['^' natural]
    atom    := rational | variable | '(' expr ')'
    rational:= integer ['/' positive-integer]

Ideal files are line-oriented::

    # comment
    ring: a,b,c,d,e
    ideal[1]:
    b^2*c - a*(a-c)*(a-2*c)
    ideal[2]:
    c*d^2 - e^3 - e^2
    blocks: 0,2,4
    weights: 1,1,1,1,1
    polytope[1]: relative/path.json

``ideal:`` is shorthand for ``ideal[1]:``.  ``polytope[k]:`` lines point at
vertex-list JSON files and may replace the corresponding ideal section.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb
from typing import Collection, NamedTuple, Sequence

from .linalg import exact, int_rows
from .rings import ENUMERATION_LIMIT, Monomial, Polynomial


# the most term products one parsed polynomial may take to expand, its
# powers of sums and its products together (about half a second of
# Polynomial.__pow__)
EXPANSION_WORK_LIMIT = 10**5


def _power_work(terms: int, degree: int, arity: int, exponent: int) -> int:
    """An upper bound on the term products ``Polynomial.__pow__`` makes to
    raise a ``terms``-term polynomial of degree ``degree`` in ``arity``
    variables to ``exponent``: it follows the same square-and-multiply
    schedule, and ``base ** k`` has at most every monomial of degree at
    most ``degree * k`` and at most one term per multiset of ``k`` terms."""

    def size(k: int) -> int:
        return min(comb(degree * k + arity, arity), comb(terms + k - 1, k))

    work, have, square = 0, 0, 1
    while exponent:
        if exponent & 1:
            work += size(have) * size(square)
            have += square
        exponent >>= 1
        if exponent:
            work += size(square) ** 2
            square *= 2
    return work


class ParseError(ValueError):
    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif position is not None:
            loc = f" (at position {position})"
        super().__init__(message + loc)
        self.position = position
        self.line = line


# ---------------------------------------------------------------------------
# rationals and vectors


def _past_the_digit_limit() -> ValueError:
    limit = sys.get_int_max_str_digits()
    return ValueError(
        f"an integer of more than {limit} digits cannot be written (the integer string limit)"
    )


def format_rational(value: Fraction | int) -> str:
    """``n`` or ``p/q``, which is ``str`` of an ``int`` or a ``Fraction``; an
    integer past the integer string limit is refused with ``ValueError``
    (exit 2)."""
    if type(value) not in (int, Fraction):
        value = Fraction(value)
    try:
        return str(value)
    except ValueError:
        raise _past_the_digit_limit() from None


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


# the decimal texts of the ints of the rows of ints with |v| < _TEXT_BOUND
# written so far: a document holds few distinct small ints, and a lookup is
# cheaper than str()
_TEXT: dict[int, str] = {}
_TEXT_BOUND = 4096


def _int_texts(values: Sequence[int]) -> list[str]:
    """The texts of ``int`` values (a ``bool`` would read ``_TEXT[0]`` or
    ``_TEXT[1]``).  On a miss ``str`` writes the row, and a row of small ints
    enters the table; ``str`` raises ``ValueError`` past the integer string
    limit."""
    texts = list(map(_TEXT.get, values))
    if None in texts:
        texts = list(map(str, values))
        if -_TEXT_BOUND < min(values) and max(values) < _TEXT_BOUND:
            _TEXT.update(zip(values, texts))
    return texts


def format_vector(values: Sequence[Fraction | int]) -> str:
    """Comma-separated :func:`format_rational` texts.  An all-``int`` vector,
    decided in one C-level pass, is written from the small-int text table
    in one join; any other goes value by value."""
    return format_vectors((values,))[0]


def format_vectors(vectors: Collection[Sequence[Fraction | int]]) -> list[str]:
    """:func:`format_vector` of each vector, with integrality decided once
    for the whole set."""
    if not int_rows(vectors):
        return [",".join(map(format_rational, values)) for values in vectors]
    try:
        return [",".join(texts) for texts in map(_int_texts, vectors)]
    except ValueError:
        raise _past_the_digit_limit() from None


def parse_vector(text: str) -> tuple[Fraction, ...]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise ParseError(f"empty vector {text!r}")
    return tuple(parse_rational(piece) for piece in items)


def parse_int_vector(text: str) -> tuple[int, ...]:
    vec = parse_vector(text)
    out = []
    for v in vec:
        if v.denominator != 1:
            raise ParseError(f"expected integers, got {format_rational(v)}")
        out.append(int(v))
    return tuple(out)


def scalar_to_json(value: Fraction | int):
    v = exact(value)
    return v if type(v) is int else format_rational(v)


def render_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the values a
    document holds: ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``,
    ``int``, ``bool`` and ``None``.  Any other value (a float, a
    ``Fraction``) or key raises ``TypeError``, and an integer past the integer
    string limit raises ``ValueError``.

    Ints are read from the small-int text table: an all-``int`` list is
    written in one ``join``, and a list or dict whose elements or values are
    all non-empty ``int`` rows in one ``join`` per row, each shape decided by
    one C-level type pass.  The chunks are joined once at the end."""
    chunks: list[str] = []
    put = chunks.append

    def int_list(values, newline: str) -> str:
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(_int_texts(values)) + newline + "]"

    def int_row_set(items) -> bool:
        # every item a non-empty list or tuple of ints
        return set(map(type, items)) <= {list, tuple} and all(items) and int_rows(items)

    def write(item, newline: str) -> None:
        # ``newline`` is a line break followed by the indentation of ``item``
        kind = type(item)
        if kind is str:
            put(encode_basestring_ascii(item))
        elif kind is int:
            put(str(item))
        elif item is None:
            put("null")
        elif item is True:
            put("true")
        elif item is False:
            put("false")
        elif kind is list or kind is tuple:
            if not item:
                put("[]")
                return
            inner = newline + "  "
            if int_rows((item,)):
                put(int_list(item, newline))
                return
            rows = int_row_set(item)
            separator = "[" + inner
            for element in item:
                if rows:
                    put(separator + int_list(element, inner))
                else:
                    put(separator)
                    write(element, inner)
                separator = "," + inner
            put(newline + "]")
        elif kind is dict:
            if not item:
                put("{}")
                return
            inner = newline + "  "
            rows = int_row_set(item.values())
            separator = "{" + inner
            for key in sorted(item):
                head = separator + encode_basestring_ascii(key) + ": "
                if rows:
                    put(head + int_list(item[key], inner))
                else:
                    put(head)
                    write(item[key], inner)
                separator = "," + inner
            put(newline + "}")
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    try:
        write(value, "\n")
    except ValueError:  # only str() of an int past the limit raises it
        raise _past_the_digit_limit() from None
    return "".join(chunks)


def scalar_from_json(value) -> Fraction | int:
    if isinstance(value, bool):
        raise ParseError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return exact(parse_rational(value))
    raise ParseError(f"expected an integer or 'p/q' string, got {value!r}")


# ---------------------------------------------------------------------------
# polynomial expressions

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", position=pos)
            break
        if match.group("num"):
            tokens.append(("num", match.group("num"), match.start("num")))
        elif match.group("name"):
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    return tokens


class _PolyParser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = list(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}
        self.arity = len(self.variables)
        # term products of the powers and products admitted so far
        self.work = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", position=len(self.text))
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        tok = self.take()
        if tok[0] != "op" or tok[1] != symbol:
            raise ParseError(f"expected {symbol!r}, found {tok[1]!r}", position=tok[2])

    def number(self, tok: tuple[str, str, int]) -> int:
        """The value of a number token; one longer than the interpreter's
        integer string limit is refused before it is converted."""
        limit = sys.get_int_max_str_digits()
        if limit and len(tok[1]) > limit:
            raise ParseError(
                f"number of {len(tok[1])} digits (> {limit}, the integer string limit)",
                position=tok[2],
            )
        return int(tok[1])

    def parse(self) -> Polynomial:
        poly = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", position=tok[2])
        return poly

    def expr(self) -> Polynomial:
        total = self.signed_product()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            self.take()
            term = self.signed_product()
            total = total + (term if tok[1] == "+" else -term)
        return total

    def signed_product(self) -> Polynomial:
        sign = 1
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                if tok[1] == "-":
                    sign = -sign
                continue
            break
        return self.product() * sign

    def product(self) -> Polynomial:
        first_tok = self.peek()
        result = self.power()
        # a leading numeric coefficient may omit the '*' before its factor
        leading_coefficient = first_tok is not None and first_tok[0] == "num"
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] == "*":
                self.take()
                result = self.times(result, tok[2])
                leading_coefficient = False
                continue
            if tok[0] == "name" or (tok[0] == "op" and tok[1] == "("):
                if leading_coefficient:
                    result = self.times(result, tok[2])
                    leading_coefficient = False
                    continue
                raise ParseError(
                    f"missing '*' before {tok[1]!r} (implicit multiplication is only"
                    " allowed after a leading coefficient)",
                    position=tok[2],
                )
            if tok[0] == "num":
                raise ParseError(
                    f"missing '*' before {tok[1]!r}", position=tok[2]
                )
            break
        return result

    def times(self, left: Polynomial, position: int) -> Polynomial:
        """``left`` times the next factor, refused before multiplying when
        the text's term products would pass ``EXPANSION_WORK_LIMIT``."""
        right = self.power()
        self.work += len(left.terms) * len(right.terms)
        if self.work > EXPANSION_WORK_LIMIT:
            raise ParseError(
                f"product of a {len(left.terms)}-term and a {len(right.terms)}-term polynomial"
                f" would take {self.work} term products (> {EXPANSION_WORK_LIMIT})",
                position=position,
            )
        return left * right

    def power(self) -> Polynomial:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            exp_tok = self.take()
            if exp_tok[0] != "num":
                raise ParseError("exponent must be a natural number", position=exp_tok[2])
            exponent = self.number(exp_tok)
            limit = sys.get_int_max_str_digits()
            # a power of a sum can have every monomial of degree at most
            # deg * exponent: refuse it before expanding when that is too many
            if len(base.terms) > 1:
                bound = comb(base.degree() * exponent + self.arity, self.arity)
                if bound > ENUMERATION_LIMIT:
                    size = bound if not limit or bound < 10**limit else f"10^{limit} or more"
                    raise ParseError(
                        f"power {exponent} of a {len(base.terms)}-term polynomial could expand"
                        f" to {size} monomials (> {ENUMERATION_LIMIT})",
                        position=exp_tok[2],
                    )
                self.work += _power_work(len(base.terms), base.degree(), self.arity, exponent)
                if self.work > EXPANSION_WORK_LIMIT:
                    raise ParseError(
                        f"power {exponent} of a {len(base.terms)}-term polynomial could take"
                        f" {self.work} term products to expand (> {EXPANSION_WORK_LIMIT})",
                        position=exp_tok[2],
                    )
            # a power p^e / q^e of a constant needs no more digits than the
            # integer string limit allows: k^e >= 2^((bits(k) - 1) * e) decides
            # a large power without computing it, and any other has fewer than
            # twice the bits of 10^limit and is compared exactly
            if limit and base.degree() == 0:
                (value,) = base.terms.values()
                ceiling = 10**limit
                for k in (abs(value.numerator), value.denominator):
                    if k > 1 and (
                        (k.bit_length() - 1) * exponent >= ceiling.bit_length() or k**exponent >= ceiling
                    ):
                        raise ParseError(
                            f"power of a constant has more than {limit} digits"
                            f" (the integer string limit)",
                            position=exp_tok[2],
                        )
            return base ** exponent
        return base

    def atom(self) -> Polynomial:
        tok = self.take()
        kind, value, position = tok
        if kind == "num":
            numerator = self.number(tok)
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den_tok = self.take()
                denominator = self.number(den_tok) if den_tok[0] == "num" else 0
                if denominator == 0:
                    raise ParseError("denominator must be a positive integer", position=den_tok[2])
                return Polynomial.constant(self.arity, Fraction(numerator, denominator))
            return Polynomial.constant(self.arity, numerator)
        if kind == "name":
            if value not in self.index:
                raise ParseError(
                    f"unknown variable {value!r} (ring variables: {', '.join(self.variables)})",
                    position=position,
                )
            return Polynomial.variable(self.arity, self.index[value])
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", position=position)


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    if not text.strip():
        raise ParseError("empty polynomial expression")
    return _PolyParser(text, variables).parse()


def format_monomial(mono: Monomial, variables: Sequence[str]) -> str:
    parts = []
    for name, e in zip(variables, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_polynomial(poly: Polynomial, variables: Sequence[str], order=None) -> str:
    """Render a polynomial; with ``order`` given, terms are listed from the
    largest monomial down, so a basis element shows its lead first."""
    if poly.is_zero:
        return "0"
    if order is not None:
        terms = sorted(poly.terms.items(), key=lambda kv: order.key(kv[0]), reverse=True)
    else:
        terms = poly.sorted_terms()
    pieces: list[str] = []
    for i, (mono, coeff) in enumerate(terms):
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = format_monomial(mono, variables)
        if body == "1":
            text = format_rational(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{format_rational(mag)}*{body}"
        if i == 0:
            pieces.append(text if sign == "+" else f"-{text}")
        else:
            pieces.append(f" {sign} {text}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# ideal / chain files

_SECTION = re.compile(r"^(ring|blocks|weights|ideal|polytope)(?:\[(\d+)\])?\s*:\s*(.*)$")


class IdealFile(NamedTuple):
    variables: tuple[str, ...]
    sections: dict[int, list[Polynomial]]
    blocks: tuple[int, ...] | None
    weights: tuple[Fraction, ...] | None
    polytope_paths: dict[int, str]

    @property
    def arity(self) -> int:
        return len(self.variables)

    def ideal_sections(self) -> dict[int, list[Polynomial]]:
        """The ideal sections, for a command that takes no polytope files."""
        if self.polytope_paths:
            raise ParseError("this command needs ideal sections, not polytope files")
        return self.sections

    def single_ideal_generators(self) -> list[Polynomial]:
        gens: list[Polynomial] = []
        for _, section in sorted(self.ideal_sections().items()):
            gens.extend(section)
        if not gens:
            raise ParseError("no ideal generators found in input file")
        return gens


def parse_ideal_file(text: str) -> IdealFile:
    variables: tuple[str, ...] | None = None
    sections: dict[int, list[str]] = {}
    polytope_paths: dict[int, str] = {}
    blocks: tuple[int, ...] | None = None
    weights: tuple[Fraction, ...] | None = None
    current: int | None = None
    declared: set[str] = set()  # the headers read so far, but ideal[k]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _SECTION.match(line)
        if match:
            kind, idx, rest = match.group(1), match.group(2), match.group(3).strip()
            if kind != "ideal":
                header = f"polytope[{int(idx) if idx else 1}]" if kind == "polytope" else kind
                if header in declared:
                    raise ParseError(f"duplicate {header} declaration", line=lineno)
                declared.add(header)
            if kind == "ring":
                names = tuple(n.strip() for n in rest.split(",") if n.strip())
                if not names or len(set(names)) != len(names):
                    raise ParseError(f"bad ring declaration {rest!r}", line=lineno)
                variables = names
                current = None
            elif kind == "blocks":
                blocks = tuple(parse_int_vector(rest))
                current = None
            elif kind == "weights":
                weights = parse_vector(rest)
                current = None
            elif kind == "ideal":
                section = int(idx) if idx else 1
                if section < 1:
                    raise ParseError("ideal section indices start at 1", line=lineno)
                sections.setdefault(section, [])
                current = section
                if rest:
                    sections[section].append(rest)
            else:  # polytope
                section = int(idx) if idx else 1
                if not rest:
                    raise ParseError("polytope section needs a file path", line=lineno)
                polytope_paths[section] = rest
                current = None
            continue
        if current is None:
            raise ParseError(f"content outside any section: {line!r}", line=lineno)
        sections[current].append(line)
    if variables is None:
        raise ParseError("missing ring declaration")
    polys = {k: [parse_polynomial(expr, variables) for expr in lines] for k, lines in sections.items()}
    return IdealFile(variables, polys, blocks, weights, polytope_paths)
