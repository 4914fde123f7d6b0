"""The free algebra with trace.

Elements are exact-rational linear combinations of monomials
``c * x_{i1}...x_{ik} * tr(w_1)...tr(w_m)`` where the word part is a
noncommutative product of variables and each trace symbol is indexed by a
cyclic equivalence class of words.  The canonical encoding (least rotation
for trace words, sorted trace multiset, no zero coefficients) makes equality
of normal forms a dict comparison.

``tr(1)``, the trace of the empty word, is kept as a formal symbol here;
it only becomes the matrix size at evaluation time (genmat / findim).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .sparse import SparsePoly, add_terms, exact, render_sum

Word = tuple  # tuple[int, ...] of positive variable indices


def least_rotation(word: Word) -> Word:
    """Lexicographically least rotation, Booth's algorithm, O(len)."""
    n = len(word)
    if n <= 1:
        return word
    s = word + word
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return word[k:] + word[:k]


@dataclass(frozen=True)
class CyclicWord:
    """A rotation class of words; ``representative`` is the least rotation."""

    representative: Word
    length: int

    @classmethod
    def of(cls, letters) -> "CyclicWord":
        w = tuple(letters)
        return cls(least_rotation(w), len(w))

    def __str__(self):
        return "tr(" + ("1" if not self.representative else _word_str(self.representative)) + ")"


def normalize(letters) -> CyclicWord:
    """Canonical cyclic form of a word; the empty word is the tr(1) symbol."""
    return CyclicWord.of(letters)


def _trace_key(w: Word):
    return (len(w), w)


def sort_traces(traces) -> tuple:
    """Trace words in the canonical order of a monomial key: shorter first,
    then lexicographic."""
    return tuple(sorted(traces, key=_trace_key))


def _check_index(i: int) -> None:
    if i < 1:
        raise ValueError("variable indices are positive integers")


def _key_mul(k1, k2):
    (w1, t1), (w2, t2) = k1, k2
    return (w1 + w2, sort_traces(t1 + t2))


class TracePoly(SparsePoly):
    """Normal-form element of the free trace algebra.

    terms maps (word, traces) -> a nonzero int or Fraction, where word is a
    tuple of variable indices and traces is the sorted tuple of canonical
    cyclic words.
    """

    __slots__ = ()
    UNIT_KEY = ((), ())
    key_mul = staticmethod(_key_mul)

    # -- constructors --------------------------------------------------
    @classmethod
    def scalar(cls, c) -> "TracePoly":
        return cls({((), ()): exact(c)})

    @classmethod
    def variable(cls, i: int) -> "TracePoly":
        _check_index(i)
        return cls({((i,), ()): 1})

    @classmethod
    def monomial(cls, letters, trace_words=()) -> "TracePoly":
        """The word ``letters`` times tr(w) for each w in ``trace_words``,
        each trace word cyclically normalized."""
        traces = sort_traces(least_rotation(tuple(t)) for t in trace_words)
        return cls({(tuple(letters), traces): 1})

    @classmethod
    def word(cls, letters) -> "TracePoly":
        return cls.monomial(letters)

    @classmethod
    def trace_symbol(cls, letters) -> "TracePoly":
        """The pure trace monomial tr(letters), cyclically normalized."""
        return cls.monomial((), (letters,))

    # -- trace and substitution -------------------------------------------
    def trace(self) -> "TracePoly":
        """Formal trace: linear, kills the word part into a new trace symbol."""
        out = {}
        add_terms(out, ((((), sort_traces(traces + (least_rotation(w),))), c)
                        for (w, traces), c in self.terms.items()))
        return TracePoly._wrap(out)

    def variables(self) -> set:
        out = set()
        for (w, traces) in self.terms:
            out.update(w)
            for t in traces:
                out.update(t)
        return out

    def substitute(self, mapping) -> "TracePoly":
        """Apply the trace-compatible endomorphism x_i -> mapping[i].

        Every variable occurring in self must be mapped; traces of substituted
        words are re-expanded and re-normalized.
        """
        missing = sorted(v for v in self.variables() if v not in mapping)
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

        return TracePoly.sum((c, image(w, traces)) for (w, traces), c in self.terms.items())

    # -- term inspection ----------------------------------------------------
    def term_degrees(self):
        """Set of total degrees (word letters plus trace letters) of terms."""
        return {len(w) + sum(len(t) for t in traces) for (w, traces) in self.terms}

    # -- rendering -----------------------------------------------------------
    def sorted_terms(self):
        """Terms in canonical display order: longer words first, then traces."""
        def key(item):
            # (-len(w), w, (_trace_key(t) for t in traces)) flattened into
            # one list of ints, which orders the same and compares faster:
            # equal lengths come before the letters they count
            (w, traces), _ = item
            flat = [-len(w), *w]
            for t in traces:
                flat.append(len(t))
                flat += t
            return flat
        return sorted(self.terms.items(), key=key)

    def render(self, var_names=None) -> str:
        """The text that ``parse_trace_poly`` reads back; ``var_names`` maps
        variable indices to names, x<i> otherwise.  Each distinct word and
        each distinct tuple of traces is written once per call."""
        words = {}
        trace_parts = {}

        def word_text(w):
            text = words.get(w)
            if text is None:
                text = words[w] = _word_str(w, var_names)
            return text

        def trace_text(t):
            return "tr(" + (word_text(t) if t else "1") + ")"

        pairs = []
        for (w, traces), c in self.sorted_terms():
            text = trace_parts.get(traces)
            if text is None:
                text = trace_parts[traces] = _power_product(traces, trace_text)
            if w:
                text = text + "*" + word_text(w) if text else word_text(w)
            pairs.append((text, c))
        return render_sum(pairs)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"TracePoly({self.render()})"


def _power_product(factors, text) -> str:
    """``factors`` written as a product, each run of equal neighbours f as
    ``text(f)^k``: ``a*b^2`` for (a, b, b)."""
    parts = []
    run = 1
    last = len(factors) - 1
    for i, f in enumerate(factors):
        if i < last and factors[i + 1] == f:
            run += 1
            continue
        parts.append(text(f) if run == 1 else f"{text(f)}^{run}")
        run = 1
    return "*".join(parts)


def _word_str(w: Word, var_names=None) -> str:
    names = var_names or {}
    return _power_product(w, lambda i: names[i] if i in names else f"x{i}")


# -- module-level operation aliases ------------------------------------------

def formal_trace(p: TracePoly) -> TracePoly:
    return p.trace()


def substitute(p: TracePoly, mapping) -> TracePoly:
    return p.substitute(mapping)


def x(i: int) -> TracePoly:
    return TracePoly.variable(i)


# -- parser -------------------------------------------------------------------

# One token per match.  tr(<letters joined by *>) with no blanks inside is
# one token, group _TRACE_WORD; any other tr( is read a token at a time.  The
# last group catches any other character, which cannot start a token.
_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d*)|tr\((x\d*(?:\*x\d*)*)\)|(tr)|([()+\-*^/])|(\S))")
_TRACE_WORD = 3
_UNTOKENIZABLE = 6


def _as_poly(v) -> TracePoly:
    """A parsed value as a TracePoly (see _Parser for the two kinds)."""
    if type(v) is tuple:
        c, word, traces = v
        return TracePoly({(word, sort_traces(traces)): c})
    return v


def _degree(v) -> int:
    if type(v) is tuple:
        return len(v[1]) + sum(map(len, v[2]))
    return max(v.term_degrees(), default=0)


# A degree-0 value is a polynomial in tr(1) with rational coefficients.  Its
# powers, and every product in which a factor is a sum, are refused before
# they are built when a term of the result could hold more than
# DEGREE0_MAX_TRACES factors tr(1) or a coefficient of more than
# DEGREE0_MAX_BITS bits: tr(1)^64, 2^32768 and (tr(1)+1)^32*(tr(1)+1)^32
# parse, tr(1)^65, 2^32769 and (tr(1)+1)^64*(tr(1)+1) do not.  A product of
# monomials grows only with the text.
DEGREE0_MAX_TRACES = 64
DEGREE0_MAX_BITS = 65536


def _size(v):
    """The largest number of tr(1) factors in a term of ``v`` and the
    largest bit length of a numerator or denominator of its coefficients."""
    if type(v) is tuple:
        terms = [(v[2], v[0])]
    else:
        terms = [(traces, c) for (_, traces), c in v.terms.items()]
    traces = max((t.count(()) for t, _ in terms), default=0)
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in terms), default=0)
    return traces, bits


def _check_size(factors, e: int = 1) -> None:
    """Raise ValueError if the product of ``factors``, each a pair of
    ``_size``, to the power ``e`` is above the bounds.  A term of it holds
    at most the sum of the factors' tr(1) counts, times ``e``, and a
    coefficient at most the sum of their bit lengths, times ``e`` (up to
    the few bits that binomial coefficients and sums of products add)."""
    traces = e * sum(t for t, _ in factors)
    if traces > DEGREE0_MAX_TRACES:
        what = (f"power {e} of a factor with {factors[0][0]}" if e > 1 else
                "product of factors with " + " and ".join(str(t) for t, _ in factors))
        raise ValueError(f"{what} tr(1) in a term is above the bound of "
                         f"{DEGREE0_MAX_TRACES} tr(1) in a term")
    bits = e * sum(b for _, b in factors)
    if bits > DEGREE0_MAX_BITS:
        what = (f"power {e} of a {factors[0][1]}-bit coefficient" if e > 1 else
                "product of " + " and ".join(f"{b}-bit" for _, b in factors)
                + " coefficients")
        raise ValueError(f"{what} is above the bound of {DEGREE0_MAX_BITS} bits")


# The parser opens at most this many parentheses around a token: 256 nested
# levels take 768 of the interpreter's 1000 default frames, which leaves room
# for the caller's own stack; 300 levels of an unbounded parser overran it.
MAX_NESTING = 256


def _shown(tok) -> str:
    """A token as error messages name it: a trace word token is 'tr'."""
    return tok[0] if type(tok) is tuple else tok


class _Parser:
    """Recursive descent for the rendering grammar.

    expr   := ['-'|'+'] term (('+'|'-') term)*
    term   := power ('*' power)*
    power  := atom ('^' INT)*
    atom   := INT ['/' INT] | VAR | 'tr' '(' expr ')' | '(' expr ')'

    Each open parenthesis, plain or of a trace, costs three Python frames
    (``expr``, ``term``, ``atom``), so ``atom`` refuses to open more than
    ``MAX_NESTING`` of them, before the interpreter's recursion limit is
    reached.

    A parsed value is a monomial ``(coefficient, word, traces)``, its traces
    cyclically normalized but not yet sorted, or a TracePoly.  Scalars,
    variables, traces of monomials and their products and powers stay
    monomials; only a sum of two or more terms in parentheses or under a
    trace becomes a TracePoly, and so does any product or power with one,
    taken in the written order since words do not commute.  ``expr`` adds
    its terms into one dict.  With ``max_degree`` set, a product or power of
    higher degree raises before it is built.

    Tokens are read one at a time from ``_TOKEN.finditer``; ``tok`` is the
    next one (None at the end).  A trace word token is the pair ('tr',
    letters), and a letter after '*' with no '^' after it is appended to the
    monomial in ``term``.  Both meet the same checks, in the same order, as
    the atoms they stand for.  Each distinct letter and trace word is
    converted once per parse.  An untokenizable character anywhere in the
    text is reported before any other error, as if the text had been
    tokenized first.
    """

    def __init__(self, text: str, max_degree=None):
        self.text = text
        self.matches = _TOKEN.finditer(text)
        self.max_degree = max_degree
        self.indices = {}       # letter token -> variable index
        self.trace_words = {}   # letters of a trace word token -> least rotation
        self.depth = 0          # parentheses open around the current token
        self.advance()

    def advance(self) -> None:
        for m in self.matches:
            group = m.lastindex
            if group == _UNTOKENIZABLE:
                self.matches = iter(())
                raise ValueError(f"cannot tokenize input at: {self.text[m.start():]!r}")
            self.tok = m[group] if group != _TRACE_WORD else ("tr", m[group])
            return
        self.tok = None

    def take(self, expected=None):
        tok = self.tok
        if tok is None:
            raise ValueError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {_shown(tok)!r}")
        self.advance()
        return tok

    def check_degree(self, degree: int) -> None:
        if degree > self.max_degree:
            raise ValueError(f"degree {degree} is above the bound {self.max_degree}")

    def parse(self) -> TracePoly:
        try:
            v = self.expr()
            if self.tok is not None:
                raise ValueError(f"trailing input at token {_shown(self.tok)!r}")
        except ValueError:
            for m in self.matches:
                if m.lastindex == _UNTOKENIZABLE:
                    raise ValueError(
                        f"cannot tokenize input at: {self.text[m.start():]!r}") from None
            raise
        return _as_poly(v)

    def expr(self):
        sign = 1
        if self.tok == "-":
            self.advance()
            sign = -1
        elif self.tok == "+":
            self.advance()
        v = self.term()
        if self.tok != "+" and self.tok != "-":
            if sign == 1:
                return v
            return (-v[0], v[1], v[2]) if type(v) is tuple else -v
        out = {}
        get = out.get
        while True:
            if type(v) is tuple:
                c, word, traces = v
                if len(traces) > 1:
                    traces = sort_traces(traces)
                terms = (((word, traces), c),)
            else:
                terms = v.terms.items()
            for key, c in terms:
                if sign != 1:
                    c = -c
                old = get(key)
                if old is not None:
                    c += old
                if c:
                    out[key] = c
                elif old is not None:
                    del out[key]
            op = self.tok
            if op != "+" and op != "-":
                return TracePoly._wrap(out)
            self.advance()
            sign = 1 if op == "+" else -1
            v = self.term()

    def term(self):
        v = self.powers(self.atom())
        while self.tok == "*":
            self.advance()
            tok = self.tok
            if type(tok) is str and tok[0] == "x":
                self.advance()
                f = (1, (self.letter(tok),), ())
                if self.tok == "^":
                    f = self.powers(f)
                elif type(v) is tuple:
                    if self.max_degree is not None:
                        self.check_degree(_degree(v) + 1)
                    v = (v[0], v[1] + f[1], v[2])
                    continue
            else:
                f = self.powers(self.atom())
            if self.max_degree is not None:
                self.check_degree(_degree(v) + _degree(f))
            if type(v) is tuple and type(f) is tuple:
                v = (v[0] * f[0], v[1] + f[1], v[2] + f[2])
            else:
                _check_size([_size(v), _size(f)])
                v = _as_poly(v) * _as_poly(f)
        return v

    def powers(self, v):
        """``v`` raised by each '^' INT that follows."""
        while self.tok == "^":
            self.advance()
            e = self.take()
            if type(e) is tuple or not e.isdigit():
                raise ValueError(f"expected integer exponent, got {_shown(e)!r}")
            e = int(e)
            degree = _degree(v)
            if self.max_degree is not None:
                self.check_degree(degree * e)
            if degree == 0 and e > 1:
                _check_size([_size(v)], e)
            v = (v[0] ** e, v[1] * e, v[2] * e) if type(v) is tuple else v ** e
        return v

    def atom(self):
        tok = self.take()
        if type(tok) is tuple:
            return (1, (), (self.trace_word(tok[1]),))
        if tok.isdigit():
            if self.tok == "/":
                self.advance()
                den = self.take()
                if type(den) is tuple or not den.isdigit():
                    raise ValueError(f"expected denominator, got {_shown(den)!r}")
                if int(den) == 0:
                    raise ValueError(f"zero denominator in {tok}/{den}")
                return (exact(Fraction(int(tok), int(den))), (), ())
            return (int(tok), (), ())
        if tok[0] == "x":
            return (1, (self.letter(tok),), ())
        if tok == "tr" or tok == "(":
            if tok == "tr":
                self.take("(")
            if self.depth == MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {MAX_NESTING} levels")
            self.depth += 1
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            if tok == "(":
                return inner
            if type(inner) is tuple:
                c, word, traces = inner
                return (c, (), traces + (least_rotation(word),))
            return inner.trace()
        raise ValueError(f"unexpected token {tok!r}")

    def letter(self, tok: str) -> int:
        """The variable index of a letter token: x is x1."""
        idx = self.indices.get(tok)
        if idx is None:
            idx = int(tok[1:]) if len(tok) > 1 else 1
            _check_index(idx)
            self.indices[tok] = idx
        return idx

    def trace_word(self, letters: str) -> Word:
        """The least rotation of the word ``letters`` of a trace word token,
        after the index and degree checks its letters meet when read one by
        one as 'tr' '(' expr ')'."""
        rotation = self.trace_words.get(letters)
        if rotation is None:
            word = []
            for letter in letters.split("*"):
                word.append(self.letter(letter))
                if len(word) > 1 and self.max_degree is not None:
                    self.check_degree(len(word))
            rotation = self.trace_words[letters] = least_rotation(tuple(word))
        return rotation


def parse_trace_poly(text: str, max_degree=None) -> TracePoly:
    """Parse the textual grammar produced by TracePoly.render.

    With ``max_degree``, raise ValueError as soon as a product or power in
    the text has degree above it, before it is expanded, even when it would
    later cancel (``x^9 - x^9``).  Powers of degree-0 factors (``tr(1)``,
    scalars) and products with a sum as a factor are bounded whatever
    ``max_degree`` is: see ``DEGREE0_MAX_TRACES`` and ``DEGREE0_MAX_BITS``.
    """
    return _Parser(text, max_degree).parse()
