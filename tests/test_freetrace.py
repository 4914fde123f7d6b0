"""Free trace algebra: normal forms, products, the trace, substitution."""
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tracealg.freetrace import (MAX_NESTING, TracePoly, formal_trace,
                                least_rotation, parse_trace_poly, substitute, x)
from tracealg import mpoly
from tracealg.chident import ch_multilinear, ch_poly, t_multilinear
from tracealg.mpoly import MPoly
from tracealg.sparse import render_sum


def brute_least_rotation(w):
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


class TestNormalize:
    """The cyclic normal form of a trace word is its least rotation."""

    def test_rotation_to_least(self):
        assert least_rotation((2, 3, 1)) == (1, 2, 3)

    def test_trace_of_product_is_rotation_invariant(self):
        # tr(x1 x2) and tr(x2 x1) are the same symbol
        assert least_rotation((1, 2)) == least_rotation((2, 1))

    def test_empty_word_is_the_trace_of_one(self):
        w = least_rotation(())
        assert w == () and len(w) == 0
        assert TracePoly.trace_symbol(w).render() == "tr(1)"

    def test_uv_equals_vu_exhaustive(self):
        words = [(), (1,), (2,), (1, 2), (2, 2), (1, 1, 2)]
        for u in words:
            for v in words:
                assert least_rotation(u + v) == least_rotation(v + u)

    @given(st.lists(st.integers(min_value=1, max_value=4), max_size=9))
    @settings(max_examples=120)
    def test_booth_matches_bruteforce(self, letters):
        w = tuple(letters)
        assert least_rotation(w) == brute_least_rotation(w)

    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=7),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=80)
    def test_all_rotations_agree(self, letters, shift):
        w = tuple(letters)
        k = shift % len(w)
        assert least_rotation(w) == least_rotation(w[k:] + w[:k])


class TestMul:
    def test_trace_factor_commutes_past_words(self):
        p = (formal_trace(x(1)) * x(1)) * x(1)
        assert p.terms == {((1, 1), ((1,),)): Fraction(1)}

    def test_one_is_the_unit(self):
        p = x(1) * x(2) + 3 * formal_trace(x(1))
        assert TracePoly.one() * p == p
        assert p * TracePoly.one() == p

    def test_words_do_not_commute(self):
        square = (x(1) + x(2)) * (x(1) + x(2))
        expected = (TracePoly.word([1, 1]) + TracePoly.word([1, 2])
                    + TracePoly.word([2, 1]) + TracePoly.word([2, 2]))
        assert square == expected
        assert len(square.terms) == 4


class TestFormalTrace:
    def test_trace_pulls_out_trace_factors(self):
        p = formal_trace(x(1)) * x(2)
        assert formal_trace(p) == formal_trace(x(1)) * formal_trace(x(2))

    def test_trace_kills_commutators(self):
        assert formal_trace(x(1) * x(2) - x(2) * x(1)) == TracePoly.zero()

    def test_trace_of_one_stays_formal(self):
        t1 = formal_trace(TracePoly.one())
        assert t1.terms == {((), ((),)): Fraction(1)}
        assert t1 != TracePoly.scalar(1)


class TestSubstitute:
    def test_inside_trace_symbols(self):
        assert substitute(formal_trace(x(1)), {1: x(1) * x(1)}) == \
            formal_trace(TracePoly.word([1, 1]))

    def test_to_zero(self):
        p = x(1) + formal_trace(x(1))
        assert substitute(p, {1: TracePoly.zero()}) == TracePoly.zero()

    def test_unmapped_variable_is_named(self):
        with pytest.raises(ValueError, match="x2"):
            substitute(x(1) * x(2), {1: x(1)})

    def test_identity_map(self):
        p = 2 * x(1) * x(2) - formal_trace(x(1) * x(2)) * x(1)
        assert substitute(p, {1: x(1), 2: x(2)}) == p

    def test_merged_keys_cancel(self):
        commutator = x(1) * x(2) - x(2) * x(1)
        assert substitute(commutator, {1: x(1), 2: x(1)}).terms == {}
        p = formal_trace(x(1) * x(2) * x(2)) - formal_trace(x(2) * x(1) * x(1))
        assert substitute(p, {1: x(3), 2: x(3)}).terms == {}

    def test_relabeled_traces_are_rotated_and_sorted(self):
        p = formal_trace(x(1) * x(2) * x(3)) * formal_trace(x(3)) * x(2)
        assert substitute(p, {1: x(3), 2: x(2), 3: x(1)}).terms == \
            {((2,), ((1,), (1, 3, 2))): 1}


def reference_substitute(p, mapping):
    """The substitution that expands every word as a product of the images,
    whatever they are, as the oracle."""
    missing = sorted(v for v in p.variables() if v not in mapping)
    if missing:
        raise ValueError(f"variable x{missing[0]} is not mapped in substitution")
    word_cache = {}

    def expand(word):
        got = word_cache.get(word)
        if got is None:
            got = TracePoly.one()
            for letter in word:
                got = got * mapping[letter]
            word_cache[word] = got
        return got

    def image(w, traces):
        acc = expand(w)
        for t in traces:
            acc = acc * expand(t).trace()
        return acc

    return TracePoly.sum((c, image(w, traces)) for (w, traces), c in p.terms.items())


GENERAL_IMAGES = [x(1) + x(2), 2 * x(2), Fraction(-1, 2) * x(3), TracePoly.scalar(3),
                  x(2) * x(1), x(1) - formal_trace(x(2))]


@st.composite
def substitutions(draw):
    """Letter maps on x1..x3 with up to two unused entries, injective or not,
    or everything to x1, or one image that is not a letter; sometimes one
    variable is left unmapped."""
    images = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))
    mapping = {i: x(j) for i, j in enumerate(images, 1)}
    kind = draw(st.sampled_from(["letters", "x1", "general"]))
    if kind == "x1":
        mapping = {i: x(1) for i in mapping}
    elif kind == "general":
        mapping[draw(st.sampled_from(sorted(mapping)))] = draw(st.sampled_from(GENERAL_IMAGES))
    if draw(st.integers(0, 9)) == 0:
        del mapping[draw(st.integers(1, 3))]
    return mapping


# -- randomized algebraic laws -------------------------------------------------

small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def trace_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    p = TracePoly.zero()
    for _ in range(n_terms):
        word = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
        n_traces = draw(st.integers(min_value=0, max_value=2))
        traces = [tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
                  for _ in range(n_traces)]
        coeff = draw(small_rational)
        term = TracePoly.scalar(coeff) * TracePoly.word(word)
        for t in traces:
            term = term * formal_trace(TracePoly.word(t))
        p = p + term
    return p


@given(trace_polys(), trace_polys(), trace_polys())
@settings(max_examples=50, deadline=None)
def test_mul_is_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(trace_polys(), trace_polys())
@settings(max_examples=50, deadline=None)
def test_trace_axiom_on_products(p, q):
    # t(t(a) b) = t(a) t(b)
    assert formal_trace(formal_trace(p) * q) == formal_trace(p) * formal_trace(q)


@given(trace_polys(), trace_polys())
@settings(max_examples=40, deadline=None)
def test_substitute_is_a_trace_homomorphism(p, q):
    mapping = {1: x(2) * x(1), 2: x(1) + formal_trace(x(3)), 3: TracePoly.scalar(2)}
    assert substitute(p * q, mapping) == \
        substitute(p, mapping) * substitute(q, mapping)
    assert substitute(formal_trace(p), mapping) == \
        formal_trace(substitute(p, mapping))


class TestRendering:
    def test_word_powers_and_traces(self):
        p = formal_trace(x(1)) ** 2 * TracePoly.word([1, 1, 2])
        assert p.render() == "tr(x1)^2*x1^2*x2"

    def test_zero(self):
        assert TracePoly.zero().render() == "0"

    def test_rational_coefficients(self):
        p = TracePoly.scalar(Fraction(-1, 2)) * formal_trace(TracePoly.word([1, 1]))
        assert p.render() == "-1/2*tr(x1^2)"

    def test_bare_x_parses_as_x1(self):
        assert parse_trace_poly("x^2 - tr(x)*x") == \
            TracePoly.word([1, 1]) - formal_trace(x(1)) * x(1)


# -- the parser against a reference ---------------------------------------------
# The reference is the straightforward recursive descent: one TracePoly per
# atom, multiplied and added with TracePoly arithmetic.  The library parser
# builds each product as one monomial instead; both must give equal
# polynomials, or the same ValueError message, on every input.

_REFERENCE_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d*)|(tr)|([()+\-*^/]))")


class _ReferenceParser:
    def __init__(self, text):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _REFERENCE_TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ValueError(f"cannot tokenize input at: {text[pos:]!r}")
                break
            pos = m.end()
            self.tokens.append(m.group(m.lastindex))
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        elif self.peek() == "+":
            self.take()
        parts = [(sign, self.term())]
        while self.peek() in ("+", "-"):
            op = self.take()
            parts.append((1 if op == "+" else -1, self.term()))
        return TracePoly.sum(parts)

    def term(self):
        out = self.power()
        while self.peek() == "*":
            self.take()
            out = out * self.power()
        return out

    def power(self):
        base = self.atom()
        while self.peek() == "^":
            self.take()
            e = self.take()
            if not e.isdigit():
                raise ValueError(f"expected integer exponent, got {e!r}")
            base = base ** int(e)
        return base

    def atom(self):
        tok = self.take()
        if tok.isdigit():
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit():
                    raise ValueError(f"expected denominator, got {den!r}")
                if int(den) == 0:
                    raise ValueError(f"zero denominator in {tok}/{den}")
                return TracePoly.scalar(Fraction(int(tok), int(den)))
            return TracePoly.scalar(int(tok))
        if tok.startswith("x"):
            idx = int(tok[1:]) if len(tok) > 1 else 1
            return TracePoly.variable(idx)
        if tok == "tr":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner.trace()
        if tok == "(":
            inner = self.expr()
            self.take(")")
            return inner
        raise ValueError(f"unexpected token {tok!r}")


def _outcome(parse, text):
    """The parsed polynomial, or the ValueError message."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_parsers_agree(text):
    got = _outcome(parse_trace_poly, text)
    expected = _outcome(lambda t: _ReferenceParser(t).parse(), text)
    assert got == expected, text
    if isinstance(got, TracePoly):
        assert no_zero_stored(got)


@st.composite
def many_term_polys(draw):
    """Up to 20 terms with rational coefficients, repeated letters and
    repeated traces, tr(1) among them."""
    letters = st.integers(1, 3)
    terms = []
    for _ in range(draw(st.integers(0, 20))):
        word = draw(st.lists(letters, max_size=4))
        traces = draw(st.lists(st.lists(letters, max_size=3), max_size=3))
        traces += traces[:draw(st.integers(0, len(traces)))]
        terms.append(TracePoly.scalar(draw(small_rational)) * TracePoly.monomial(word, traces))
    return TracePoly.sum(terms)


@given(many_term_polys(), substitutions())
@settings(max_examples=200, deadline=None)
def test_substitute_matches_the_product_oracle(p, mapping):
    got = _outcome(lambda q: substitute(q, mapping), p)
    assert got == _outcome(lambda q: reference_substitute(q, mapping), p)
    if isinstance(got, TracePoly):
        assert no_zero_stored(got)
    else:
        assert re.fullmatch(r"ValueError: variable x\d is not mapped in substitution", got)


# renders, x1 also written as a bare x
renderings = st.tuples(many_term_polys(), st.sampled_from([None, {1: "x"}])).map(
    lambda case: case[0].render(case[1]))

# multi-letter traces are read as one token, and letters after '*' inline
WORD_PIECES = ["tr(x1*x2*x3)", "tr(x2*x1)^2", "x1*x2^2", "tr(x1*x0)", "tr( x1*x2)"]

TOKEN_SOUP = ["x", "x1", "x2", "x3", "x0", "12", "0", "3/4", "1/0", "2/", "tr", "tr(",
              "tr(x2)", "tr(x1)", "tr(x1*x2)", "tr(x2*x1^2)", "tr(1)", "tr(x1+x2)",
              "tr(x1-tr(x2))", "(", ")", "(x1-x2)", "(x2+1/2)", "+", "-", "*",
              "^", "^0", "^2", "^3", "^x", ".", "y", "/", *WORD_PIECES]


def _expansion_bound(text):
    """Letters times the product of the nonzero exponents; bounds the degree
    and so the size of every expansion."""
    bound = max(text.count("x"), 1)
    for e in re.findall(r"\^\s*(\d+)", text):
        bound *= max(int(e), 1)
    return bound


token_soups = st.tuples(
    st.lists(st.tuples(st.sampled_from(["", "", " ", "  "]), st.sampled_from(TOKEN_SOUP)),
             max_size=12),
    st.sampled_from(["", " ", "  \t"]),
).map(lambda soup: "".join(blank + piece for blank, piece in soup[0]) + soup[1]
      ).filter(lambda text: _expansion_bound(text) <= 10)


def _corrupt(case):
    text, (where, piece) = case
    if piece is None:
        return text
    at = where % (len(text) + 1)
    return text[:at] + piece + text[at:]


# expressions of the grammar, some with one malformed piece spliced in
grammar_texts = st.tuples(
    st.recursive(
        st.sampled_from(["x", "x1", "x2", "x3", "2", "0", "3/4", "tr(1)"]),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", " - ", "*", " * "]), inner).map("".join),
            inner.map("tr({})".format),
            inner.map("({})".format),
            inner.map("-{}".format),
            st.tuples(inner, st.sampled_from(["^0", "^2", "^3"])).map("".join)),
        max_leaves=8),
    st.tuples(st.integers(0, 60),
              st.sampled_from([None] * 4 + ["x0", "1/0", "^x", ".", " y", ")", "tr(", "* ", " "])),
).map(_corrupt).filter(lambda text: _expansion_bound(text) <= 10)


# sums of products whose factors come in any order, traces included
FACTORS = ["x", "x1", "x2", "x2^2", "2", "1/2", "0", "tr(1)", "tr(x1)", "tr(x2)",
           "tr(x2*x1)", "tr(x1^2)", "tr(x2)^2", *WORD_PIECES]
shuffled_sums = st.lists(
    st.tuples(st.sampled_from([" + ", " - "]),
              st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4).map("*".join)),
    min_size=1, max_size=6,
).map(lambda parts: "".join(sign + product for sign, product in parts))


@given(st.one_of(renderings, token_soups, grammar_texts, shuffled_sums))
@settings(max_examples=600, deadline=None, derandomize=True)
def test_parser_matches_the_reference(text):
    _assert_parsers_agree(text)


@pytest.mark.parametrize("text", [
    "xtr(x2)", "tr(x1)tr(x2)", "x^tr(x1)", "2/tr(x1)", "(x1 tr(x2))", "tr(x1*x2",
    "tr(x1*x2)*", "tr(x0)*x1", "x1*x0^2", "x1*x2*x0", "tr(x1*x2) .", ") tr(x1) y",
    "tr(x0) y", "x1*x2 ^ 2*x3", "tr(x3*x1*x2)^2*x2*x1 - tr(x1*x2*x3)^2*x2*x1",
    "2*x1*x2*tr(x1*x2)*x1", "(x1+x2)*x1*x2", "x1*(x1+x2)*x2", "tr(x1*x2)^0*x1",
    "x1*x2*x3^2*x4", "x1 x2*x3", "x1*x23", "tr(x1)*x2*tr(x3)^2", "x1*x0*x2", "2*x1*x2/3",
    "x1*tr(x2*x1)*x3 .", "(x1+x2)*x1*tr(x2)"])
def test_trace_words_and_inline_letters_match_the_reference(text):
    _assert_parsers_agree(text)


# the messages of the parser these were first pinned on, before trace words
# were read as one token
@pytest.mark.parametrize("text, messages", [
    ("x1*x2*x3", ["degree 2 is above the bound 0", "degree 2 is above the bound 1",
                  "degree 3 is above the bound 2", None]),
    ("tr(x1*x2*x3)", ["degree 2 is above the bound 0", "degree 2 is above the bound 1",
                      "degree 3 is above the bound 2", None]),
    ("tr(x1*x2)*x3*x4*x5", ["degree 2 is above the bound 0", "degree 2 is above the bound 1",
                            "degree 3 is above the bound 2", "degree 4 is above the bound 3"]),
    # pinned on the parser that read each factor of a product as its own token
    ("x1*tr(x2*x3)*x4", ["degree 2 is above the bound 0", "degree 2 is above the bound 1",
                         "degree 3 is above the bound 2", "degree 4 is above the bound 3", None]),
])
def test_degree_bound_messages_are_pinned(text, messages):
    for bound, message in enumerate(messages):
        if message is None:
            assert parse_trace_poly(text, max_degree=bound) == parse_trace_poly(text)
        else:
            with pytest.raises(ValueError, match=f"^{message}$"):
                parse_trace_poly(text, max_degree=bound)


def old_word_str(w, var_names=None):
    names = var_names or {}
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        name = names.get(w[i], f"x{w[i]}")
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return "*".join(parts)


def old_monomial_str(w, traces, var_names=None):
    parts = []
    i = 0
    while i < len(traces):
        j = i
        while j < len(traces) and traces[j] == traces[i]:
            j += 1
        inner = "1" if not traces[i] else old_word_str(traces[i], var_names)
        sym = f"tr({inner})"
        parts.append(sym if j - i == 1 else f"{sym}^{j - i}")
        i = j
    if w:
        parts.append(old_word_str(w, var_names))
    return "*".join(parts)


def old_render(p, var_names=None):
    """The rendering that wrote every monomial afresh, as the oracle."""
    def key(item):
        (w, traces), _ = item
        return (-len(w), w, tuple((len(t), t) for t in traces))
    return render_sum((old_monomial_str(w, traces, var_names), c)
                      for (w, traces), c in sorted(p.terms.items(), key=key))


@given(st.one_of(trace_polys(), many_term_polys()),
       st.sampled_from([None, {1: "x"}, {1: "a", 3: "c"}]))
@settings(max_examples=100, deadline=None)
def test_render_matches_the_monomial_oracle(p, var_names):
    assert p.render(var_names) == old_render(p, var_names)


@pytest.mark.parametrize("n", range(1, 6))
def test_render_of_ch_matches_the_monomial_oracle(n):
    for p in (ch_multilinear(n), ch_poly(n), t_multilinear(n)):
        assert p.render() == old_render(p)
        assert p.render({1: "x"}) == old_render(p, {1: "x"})


@given(st.one_of(trace_polys(), many_term_polys()))
@settings(max_examples=100, deadline=None)
def test_render_parse_roundtrip(p):
    text = p.render()
    assert parse_trace_poly(text) == p
    assert parse_trace_poly(text).render() == text


class TestParserDegreeBound:
    @pytest.mark.parametrize("text, degree", [
        ("x^9", 9), ("(x1+x2)^40", 40), ("x^2000000000", 2000000000),
        ("x^4*x^5", 9), ("tr(x^3)^3", 9), ("x^9 - x^9", 9), ("0*x^9", 9),
        ("tr(x1+x2)^2*(x1-x2)^7", 9)])
    def test_refused_before_expansion(self, text, degree):
        with pytest.raises(ValueError, match=f"^degree {degree} is above the bound 8$"):
            parse_trace_poly(text, max_degree=8)

    @pytest.mark.parametrize("text", ["x^8", "tr(x^2)^4", "(x1+x2)^4*x^4",
                                      "x^4*tr(x1+x2)^4", "2^20*tr(1)^9"])
    def test_within_the_bound_parses_as_without_it(self, text):
        assert parse_trace_poly(text, max_degree=8) == parse_trace_poly(text)


class TestDegreeZeroPowerBound:
    @pytest.mark.parametrize("text", ["tr(1)^64", "2^32768", "(tr(1)^8)^8",
                                      "(tr(1) + 1)^64", "(1/2)^32768", "(-3)^32768",
                                      "(tr(1)^64*tr(1))^1", "x^100*tr(1)^64"])
    def test_at_the_bound_parses_as_the_reference(self, text):
        assert parse_trace_poly(text) == _ReferenceParser(text).parse()

    @pytest.mark.parametrize("text, message", [
        ("tr(1)^65", "power 65 of a factor with 1 tr(1) in a term"),
        ("(tr(1)^8)^9", "power 9 of a factor with 8 tr(1) in a term"),
        ("(tr(1) + 1)^65", "power 65 of a factor with 1 tr(1) in a term"),
        ("tr(tr(1))^33", "power 33 of a factor with 2 tr(1) in a term"),
        ("tr(1)^20000000", "power 20000000 of a factor with 1 tr(1) in a term"),
        ("2^32769", "power 32769 of a 2-bit coefficient"),
        ("(1/2)^32769", "power 32769 of a 2-bit coefficient"),
        ("(2^32768)^2", "power 2 of a 32769-bit coefficient"),
        ("0^99999999999999999999", "power 99999999999999999999 of a 1-bit coefficient")])
    def test_above_the_bound_is_refused_before_expansion(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message) + " is above the bound"):
            parse_trace_poly(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_trace_poly(text, max_degree=8)

    @pytest.mark.parametrize("text", ["(tr(1)+1)^32*(tr(1)+1)^32", "(tr(1)+1)^63*(tr(1)+x)",
                                      "(2^32767+x)*(2^32767+1)", "tr(1)^64*tr(1)*tr(1)"])
    def test_products_at_the_bound_parse_as_the_reference(self, text):
        assert parse_trace_poly(text) == _ReferenceParser(text).parse()

    @pytest.mark.parametrize("text, message", [
        ("(tr(1)+1)^64*(tr(1)+1)^64", "product of factors with 64 and 64 tr(1) in a term"),
        ("(tr(1)+1)^64*(tr(1)+1)", "product of factors with 64 and 1 tr(1) in a term"),
        ("(tr(1)+1)^64*x*(tr(1)+1)^64", "product of factors with 64 and 64 tr(1) in a term"),
        ("tr(1)^64*(x+1)*tr(1)", "product of factors with 64 and 1 tr(1) in a term"),
        ("(2^32768+x)*(2^32768+1)", "product of 32769-bit and 32769-bit coefficients")])
    def test_products_with_a_sum_above_the_bound_are_refused(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message) + " is above the bound"):
            parse_trace_poly(text)


class TestNestingBound:
    """The parser recurses once per open parenthesis; past MAX_NESTING it
    refuses with ValueError instead of overrunning the interpreter stack."""

    @staticmethod
    def nested(opener, depth, inner="x"):
        return opener * depth + inner + ")" * depth

    @pytest.mark.parametrize("depth", [245, MAX_NESTING])
    def test_at_the_bound_parses(self, depth):
        assert parse_trace_poly(self.nested("(", depth)) == x(1)
        assert parse_trace_poly(self.nested("-(", depth)) == (-1) ** depth * x(1)
        tr1 = TracePoly.trace_symbol(())
        # the innermost tr(x) is one token, so it opens no parenthesis
        assert parse_trace_poly(self.nested("tr(", depth + 1)) == \
            tr1 ** depth * TracePoly.trace_symbol([1])
        assert parse_trace_poly(self.nested("tr(", depth, "x1+x2")) == \
            tr1 ** (depth - 1) * formal_trace(x(1) + x(2))

    @pytest.mark.parametrize("text", [
        "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        "tr(" * (MAX_NESTING + 1) + "x1+x2" + ")" * (MAX_NESTING + 1),
        "(" * MAX_NESTING + "x*(x+1)" + ")" * MAX_NESTING,
        "(" * 300 + "x" + ")" * 300,
        "tr(" * 5000 + "x" + ")" * 5000])
    def test_past_the_bound_is_refused(self, text):
        with pytest.raises(ValueError, match=f"^parentheses nested deeper than "
                                             f"{MAX_NESTING} levels$"):
            parse_trace_poly(text)


def test_constructors_store_integer_coefficients():
    for p in (TracePoly.scalar(Fraction(6, 3)), TracePoly.variable(2),
              TracePoly.monomial((1, 2), [(2, 1)]), parse_trace_poly("2*x - 4/2*tr(x)")):
        assert all(type(c) is int for c in p.terms.values()), p


# -- the shared sparse kernel (sparse.SparsePoly) ----------------------------------

@st.composite
def mpolys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    return MPoly.sum(
        MPoly.monomial(draw(st.dictionaries(st.sampled_from("abc"), st.integers(1, 2),
                                            max_size=2)).items(),
                       draw(small_rational))
        for _ in range(n_terms))


POLYS = {TracePoly: trace_polys(), MPoly: mpolys()}
kinds = pytest.mark.parametrize("cls", list(POLYS), ids=lambda c: c.__name__)
small_scale = st.integers(min_value=-2, max_value=2)


def no_zero_stored(p):
    return all(c != 0 for c in p.terms.values())


@kinds
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_one_pass_sum_equals_repeated_addition(cls, data):
    polys = data.draw(st.lists(POLYS[cls], max_size=5))
    scales = data.draw(st.lists(small_scale, min_size=len(polys), max_size=len(polys)))
    expected = cls.zero()
    for s, p in zip(scales, polys):
        expected = expected + s * p
    got = cls.sum(zip(scales, polys))
    assert got == expected and no_zero_stored(got)
    assert cls.sum(polys) == cls.sum((1, p) for p in polys)


@kinds
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fused_add_product_equals_adding_the_product(cls, data):
    acc, a, b = (data.draw(POLYS[cls]) for _ in range(3))
    scale = data.draw(small_scale)
    terms = dict(acc.terms)
    cls.add_product(terms, a, b, scale)
    got = cls(terms)
    assert got == acc + scale * (a * b)
    assert got.terms == terms      # nothing left for the constructor to drop


@kinds
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cancellation_stores_no_zero_coefficient(cls, data):
    p, q = data.draw(POLYS[cls]), data.draw(POLYS[cls])
    assert (p - p).terms == {} and (p + (-p)).terms == {}
    assert cls.sum([p, q, (-1, p)]).terms == q.terms
    terms = dict((p * q).terms)
    cls.add_product(terms, p, q, -1)
    assert terms == {}
    assert no_zero_stored(p + q) and no_zero_stored(p * q)


@given(st.dictionaries(st.sampled_from(["a", "b", "xi1_2_3", "psi4"]),
                       st.integers(0, 2 ** 15 - 1)), small_rational)
@settings(max_examples=40, deadline=None)
def test_monomial_round_trips_through_decode(exps, coeff):
    p = MPoly.monomial(exps.items(), coeff)
    expected = tuple(sorted((name, e) for name, e in exps.items() if e))
    if coeff == 0:
        assert p.terms == {}
    else:
        ((key, c),) = p.terms.items()
        assert MPoly.decode(key) == expected and c == coeff


def test_packed_exponents_stop_at_the_guard_bit():
    top = MPoly.var("x", 2 ** 15 - 1)
    assert MPoly.var("x", 2 ** 14) * MPoly.var("x", 2 ** 14 - 1) == top
    assert top.total_degree() == 2 ** 15 - 1 and str(top) == "x^32767"
    with pytest.raises(OverflowError, match="2\\^15"):
        MPoly.var("x", 2 ** 14) * MPoly.var("x", 2 ** 14)
    with pytest.raises(OverflowError):
        top * MPoly.var("x")
    with pytest.raises(OverflowError):
        MPoly.var("x", 2 ** 15)
    # the neighbouring field is untouched by a product just below the bound
    assert (top * MPoly.var("y")).variables() == {"x", "y"}


CONCURRENT_FIRST_USE = """
import sys, threading
from tracealg.mpoly import MPoly
names = [f"v{j}" for j in range(3000)]
seen = [None] * 8
start = threading.Barrier(8, timeout=60)

def register(t):
    start.wait()
    seen[t] = {name: next(iter(MPoly.var(name).terms)) for name in names}

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=register, args=(t,)) for t in range(8)]
for th in threads:
    th.start()
for th in threads:
    th.join(timeout=60)
if any(th.is_alive() for th in threads):
    sys.exit("a thread did not finish")
keys = seen[0]
if any(got != keys for got in seen) or len(set(keys.values())) != len(names):
    sys.exit("two threads saw different fields, or two names share one")
if any(MPoly.decode(key) != ((name, 1),) for name, key in keys.items()):
    sys.exit("a key does not decode to its own name")
"""


def test_concurrent_first_use_gives_each_name_its_own_field():
    # in a fresh interpreter, so that the process-wide name table of this
    # one does not grow by thousands of fields
    src = Path(mpoly.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", CONCURRENT_FIRST_USE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@kinds
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_scalar_multiples_are_exact(cls, data):
    p = data.draw(POLYS[cls])
    scale = data.draw(st.one_of(small_scale, small_rational))
    for got in (scale * p, p * scale):
        assert got == cls.sum([(scale, p)])
        assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)
    assert (0 * p).terms == {} and (p * Fraction(0)).terms == {}


def test_integer_multiple_of_ch_poly_is_stored_as_int():
    assert all(type(c) is int for c in (6 * ch_poly(3)).terms.values())
    assert all(type(c) is int for c in (ch_poly(4) * Fraction(24)).terms.values())


def test_integral_coefficients_are_stored_as_int():
    p = MPoly.const(Fraction(4, 2)) + MPoly.var("a") * Fraction(3)
    assert all(type(c) is int for c in p.terms.values())
    assert all(type(c) is int for c in (Fraction(1, 2) * p).primitive().terms.values())


def test_trace_and_matrix_entry_polynomials_never_mix():
    tp, mp = x(1) + 1, MPoly.var("a") + 1
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(tp, mp)
        with pytest.raises(TypeError):
            op(mp, tp)
    with pytest.raises(TypeError):
        TracePoly.sum([tp, mp])
    assert tp != mp
