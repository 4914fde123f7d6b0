"""Stratum-type combinatorics: enumeration, dimensions, closure order."""
import hashlib
import json
from functools import lru_cache

import pytest

from tracealg.strata import (CoverEdge, StrataPoset, StratumType, _is_two_split,
                             closure_leq, enumerate_types, maximal_degenerations,
                             stratification_poset, stratum_dims)


def T(*pairs):
    return StratumType.of(pairs)


class TestEnumerateTypes:
    def test_n1(self):
        assert enumerate_types(1) == [T((1, 1))]

    def test_n2(self):
        assert set(enumerate_types(2)) == {T((2, 1)), T((1, 2)), T((1, 1), (1, 1))}

    def test_n3(self):
        expected = {T((3, 1)), T((1, 3)), T((2, 1), (1, 1)),
                    T((1, 2), (1, 1)), T((1, 1), (1, 1), (1, 1))}
        assert set(enumerate_types(3)) == expected

    def test_sum_invariant(self):
        for n in range(1, 7):
            for s in enumerate_types(n):
                assert s.n == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_types(0)


class TestStratumDims:
    def test_full_matrix_type(self):
        dims = stratum_dims(T((3, 1)), 2)
        assert dims.stratum_dim == 10  # (ell-1) n^2 + 1

    def test_mixed_type(self):
        dims = stratum_dims(T((1, 1), (1, 2)), 2)
        assert dims.stratum_dim == 4
        assert dims.sheet_dim == 8
        assert dims.stabilizer_dim == 5
        assert dims.projective_stabilizer_dim == 4

    def test_codimension_one_pair(self):
        open_dim = stratum_dims(T((2, 1)), 2).stratum_dim
        diag_dim = stratum_dims(T((1, 1), (1, 1)), 2).stratum_dim
        assert open_dim == 5 and diag_dim == 4

    def test_requires_two_coordinates(self):
        with pytest.raises(ValueError, match="ell"):
            stratum_dims(T((2, 1)), 1)


def reference_closure_leq(lower, upper):
    """The exhaustive embedding search, kept as the oracle for closure_leq."""
    up = upper.pairs
    low = lower.pairs
    k_low = len(low)

    # all ways to write m as a nonnegative combination of the lower sizes
    @lru_cache(maxsize=None)
    def row_options(m):
        opts = []

        def rec(j, remaining, row):
            if j == k_low:
                if remaining == 0:
                    opts.append(tuple(row))
                return
            size = low[j][0]
            for count in range(remaining // size + 1):
                rec(j + 1, remaining - count * size, row + [count])

        rec(0, m, [])
        return opts

    target = tuple(a for _, a in low)

    def search(i, col_sums):
        if i == len(up):
            return col_sums == target
        m_i, a_i = up[i]
        for row in row_options(m_i):
            new_sums = tuple(c + a_i * r for c, r in zip(col_sums, row))
            if all(c <= t for c, t in zip(new_sums, target)):
                if search(i + 1, new_sums):
                    return True
        return False

    return search(0, tuple([0] * k_low))


class TestClosureLeq:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_exhaustive_search(self, n):
        types = enumerate_types(n)
        for upper in types:
            for lower in types:
                assert closure_leq(lower, upper) == \
                    reference_closure_leq(lower, upper), (lower, upper)

    def test_diagonal_inside_full(self):
        assert closure_leq(T((1, 1), (1, 1)), T((2, 1)))

    def test_dimension_blocks_reverse(self):
        assert not closure_leq(T((2, 1)), T((1, 1), (1, 1)))

    def test_merge_two_lines(self):
        assert closure_leq(T((1, 1), (1, 2)), T((1, 1), (1, 1), (1, 1)))

    def test_mismatched_n(self):
        with pytest.raises(ValueError, match="mismatched"):
            closure_leq(T((1, 1)), T((2, 1)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_partial_order_axioms(self, n):
        types = enumerate_types(n)
        for s in types:
            assert closure_leq(s, s)
        for s in types:
            for t in types:
                if s != t and closure_leq(s, t) and closure_leq(t, s):
                    raise AssertionError(f"antisymmetry fails: {s}, {t}")
        for s in types:
            for t in types:
                for u in types:
                    if closure_leq(s, t) and closure_leq(t, u):
                        assert closure_leq(s, u)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_dimension_strictly_decreases(self, n, ell):
        types = enumerate_types(n)
        for s in types:
            for t in types:
                if s != t and closure_leq(t, s):
                    assert stratum_dims(t, ell).stratum_dim < \
                        stratum_dims(s, ell).stratum_dim


class TestMaximalDegenerations:
    def test_split_full_2x2(self):
        assert maximal_degenerations(T((2, 1)), 2) == [(T((1, 1), (1, 1)), 1)]

    def test_merge_two_lines(self):
        assert maximal_degenerations(T((1, 1), (1, 1)), 2) == [(T((1, 2)), 2)]

    def test_split_at_higher_ell(self):
        assert maximal_degenerations(T((2, 1)), 3) == [(T((1, 1), (1, 1)), 3)]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_moves_are_exactly_the_covers(self, n):
        # the Hasse diagram of the closure_leq order, computed without moves
        types = enumerate_types(n)
        below = {s: {t for t in types if t != s and closure_leq(t, s)} for s in types}
        hasse = set()
        for s in types:
            through = set().union(*(below[u] for u in below[s]))
            hasse.update((t, s) for t in below[s] - through)
        for ell in (2, 3):
            poset = stratification_poset(n, ell)
            assert {(e.lower, e.upper) for e in poset.covers} == hasse
            # the closed codimension formulas of the moves match the dimension drops
            moves = {(t, s): codim for s in types
                     for t, codim in maximal_degenerations(s, ell)}
            assert moves == {(e.lower, e.upper): e.codim for e in poset.covers}


class TestStratificationPoset:
    def test_n2_ell2_has_the_exceptional_edge(self):
        poset = stratification_poset(2, 2)
        assert len(poset.nodes) == 3
        flagged = poset.flagged_edges
        assert len(flagged) == 1
        assert flagged[0].lower == T((1, 1), (1, 1))
        assert flagged[0].upper == T((2, 1))

    def test_n2_ell3_has_none(self):
        assert stratification_poset(2, 3).flagged_edges == []

    def test_n3_ell2(self):
        poset = stratification_poset(3, 2)
        assert len(poset.nodes) == 5
        # the 2x2 block of 2/1+1/1 splits with drop 1: the sanctioned exception
        flagged = poset.flagged_edges
        assert [(e.lower, e.upper) for e in flagged] == \
            [(T((1, 1), (1, 1), (1, 1)), T((2, 1), (1, 1)))]

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_codim_one_only_in_the_known_exception(self, n, ell):
        poset = stratification_poset(n, ell)
        for edge in poset.covers:
            assert edge.codim >= 1
            if edge.codim == 1:
                assert ell == 2
                assert edge.flagged

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_extremal_strata(self, ell):
        for n in range(1, 7):
            types = enumerate_types(n)
            top = T((n, 1))
            bottom = T((1, n))
            assert all(closure_leq(s, top) for s in types)
            assert all(closure_leq(bottom, s) for s in types)
            assert stratum_dims(top, ell).stratum_dim == (ell - 1) * n * n + 1
            assert stratum_dims(bottom, ell).stratum_dim == ell

    def test_dot_output(self):
        dot = stratification_poset(2, 2).to_dot()
        assert dot.startswith("digraph strata")
        assert '"1/1+1/1" -> "2/1"' in dot
        assert "color=red" in dot

    @pytest.mark.parametrize("ell, digest", [
        # the strata.n8 json_sha256 entries of perfbench/answer_key.json
        (2, "a17ff7bf3179840432001de6b69c9e93a5dbce9118ef087713f14406f6cfc4bc"),
        (3, "8d1718bad812d360d69d3c1af40b87848de8e77e9f87fb17367c9d1d99955ea5"),
    ], ids=["ell2", "ell3"])
    def test_n8_json_is_pinned(self, ell, digest):
        text = stratification_poset(8, ell).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_json_output(self):
        data = json.loads(stratification_poset(2, 2).to_json())
        assert data["n"] == 2 and data["ell"] == 2
        assert len(data["nodes"]) == 3
        assert sum(1 for e in data["covers"] if e["codim1_exception"]) == 1


# -- the build that re-sorted every type, kept as the oracle -----------------

def reference_enumerate_types(n):
    pairs = sorted((m, a) for m in range(1, n + 1) for a in range(1, n + 1)
                   if m * a <= n)
    out = []

    def rec(start, remaining, chosen):
        if remaining == 0:
            out.append(StratumType.of(chosen))
            return
        for idx in range(start, len(pairs)):
            m, a = pairs[idx]
            if m * a <= remaining:
                rec(idx, remaining - m * a, chosen + [(m, a)])

    rec(0, n, [])
    return sorted(out, key=lambda s: s.pairs)


def reference_maximal_degenerations(s, ell):
    found = {}
    pairs = list(s.pairs)
    for idx, (m, a) in enumerate(pairs):
        for p in range(1, m // 2 + 1):
            q = m - p
            new_type = StratumType.of(pairs[:idx] + pairs[idx + 1:] + [(p, a), (q, a)])
            found[new_type] = (ell - 1) * 2 * p * q - 1
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pairs[i][0] == pairs[j][0]:
                m = pairs[i][0]
                merged = (m, pairs[i][1] + pairs[j][1])
                rest = [pairs[t] for t in range(len(pairs)) if t not in (i, j)]
                new_type = StratumType.of(rest + [merged])
                found[new_type] = (ell - 1) * m * m + 1
    return sorted(found.items(), key=lambda kv: kv[0].pairs)


def reference_stratification_poset(n, ell):
    nodes = reference_enumerate_types(n)
    covers = []
    for s in nodes:
        s_dim = stratum_dims(s, ell).stratum_dim
        for t, _ in reference_maximal_degenerations(s, ell):
            drop = s_dim - stratum_dims(t, ell).stratum_dim
            flagged = drop == 1
            if flagged and not (ell == 2 and _is_two_split(t, s)):
                raise AssertionError(
                    f"unexpected codimension-1 covering {t} < {s} at ell={ell}")
            covers.append(CoverEdge(lower=t, upper=s, codim=drop, flagged=flagged))
    covers.sort(key=lambda e: (e.upper.pairs, e.lower.pairs))
    return StrataPoset(n=n, ell=ell, nodes=nodes, covers=covers)


def cover_rows(poset):
    return [(e.lower, e.upper, e.codim, e.flagged) for e in poset.covers]


class TestAgainstTheReferenceBuild:
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_the_poset_is_the_reference_poset(self, n, ell):
        poset = stratification_poset(n, ell)
        reference = reference_stratification_poset(n, ell)
        assert [s.pairs for s in poset.nodes] == [s.pairs for s in reference.nodes]
        assert cover_rows(poset) == cover_rows(reference)
        assert poset.to_json() == reference.to_json()
        assert poset.to_dot() == reference.to_dot()

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_the_moves_are_the_reference_moves(self, ell):
        for n in range(1, 10):
            for s in enumerate_types(n):
                assert maximal_degenerations(s, ell) == \
                    reference_maximal_degenerations(s, ell), s
                # StratumType(pairs) does not sort, and a rotation can part
                # blocks of equal size; the moves do not depend on the order
                unsorted = StratumType(s.pairs[1:] + s.pairs[:1])
                assert maximal_degenerations(unsorted, ell) == \
                    reference_maximal_degenerations(unsorted, ell), s


class TestCanonicalOrder:
    """The facts that let the build skip re-sorting and re-checking types."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_types_come_sorted_and_canonical(self, n):
        types = enumerate_types(n)
        assert types == sorted(types, key=lambda s: s.pairs)
        assert all(s == StratumType.of(s.pairs) for s in types)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("ell", [2, 3])
    def test_covers_come_in_upper_lower_order(self, n, ell):
        covers = stratification_poset(n, ell).covers
        assert covers == sorted(covers, key=lambda e: (e.upper.pairs, e.lower.pairs))
