import hashlib
import itertools
import json
import random
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import codespectra as cs
from codespectra import ParameterError, ResourceError, paths
from codespectra.cli import main
from codespectra.paths import (
    COUNT_BUDGET,
    AuditOperands,
    MODE_ALL_MAPS,
    MODE_INJECTIVE,
    _vertex_equations,
    canonical_labels,
)


def naive_count_w(code, labels, labels2=(), drop_vertex=None):
    """Oracle: count column-index tuples straight from the per-vertex column
    sums, independently of the production equation builder.  A second
    walk enters with the opposite sign (its product is conjugated), and the
    equation of `drop_vertex` is left out."""
    n, q, k = code.n, code.q, code.k
    gen = np.asarray(code.generator)
    cols = [[int(x) for x in gen[:, t]] for t in range(n)]
    walks = [(tuple(labels), 1)] + ([(tuple(labels2), -1)] if labels2 else [])
    steps = sum(len(w) - 1 for w, _ in walks)
    verts = (set(labels) | set(labels2)) - {drop_vertex}
    count = 0
    for tup in itertools.product(range(n), repeat=steps):
        acc = {z: [0] * k for z in verts}
        pos = 0
        for w, sign in walks:
            ell = len(w) - 1
            t = tup[pos:pos + ell]
            pos += ell
            for u in range(1, ell + 1):
                if w[u] in acc:
                    head, tail = cols[t[u % ell]], cols[t[u - 1]]
                    for r in range(k):
                        acc[w[u]][r] += sign * (head[r] - tail[r])
        if all(x % q == 0 for vec in acc.values() for x in vec):
            count += 1
    return count


def naive_expect(code, labels, injective=False):
    """Oracle: average the inner-product product over raw codeword tuples,
    keeping only tuples of distinct codewords when `injective`."""
    ell = len(labels) - 1
    verts = sorted(set(labels))
    words = [
        np.exp(2j * np.pi * cs.encode(code, np.array(digits)) / code.q)
        for digits in itertools.product(range(code.q), repeat=code.k)
    ]
    ip = [[complex(a @ b.conj()) for b in words] for a in words]
    total, kept = 0.0, 0
    for choice in itertools.product(range(len(words)), repeat=len(verts)):
        if injective and len(set(choice)) < len(choice):
            continue
        send = dict(zip(verts, choice))
        prod = 1.0
        for j in range(ell):
            prod *= ip[send[labels[j]]][send[labels[j + 1]]]
        total += prod
        kept += 1
    return total / kept


TERNARY = cs.LinearCode(q=3, generator=np.array([[1, 0, 1, 2], [0, 1, 1, 1]]))
TERNARY_6_3 = cs.LinearCode(q=3, generator=np.array(
    [[1, 0, 0, 1, 1, 2], [0, 1, 0, 1, 2, 1], [0, 0, 1, 2, 1, 1]]))


# Column 3 is twice column 1, which elimination allows; a repeated column
# does not.
TERNARY_PROPORTIONAL = cs.LinearCode(q=3, generator=np.array(
    [[1, 0, 2, 1], [0, 1, 0, 1]]))
TERNARY_REPEATED = cs.LinearCode(q=3, generator=np.array(
    [[1, 0, 1, 2], [0, 1, 0, 1]]))
BINARY_REPEATED = cs.LinearCode(q=2, generator=np.array(
    [[1, 0, 1, 1], [0, 1, 0, 0]]))


@st.composite
def small_codes(draw):
    """[n, k] codes with n <= 4 in permuted systematic form, binary or, one
    time in three, ternary; zero, repeated and proportional columns are
    included, so counts run both with and without elimination."""
    q = draw(st.sampled_from([2, 2, 3]))
    n = draw(st.integers(3, 4))
    k = draw(st.integers(1, n - 1))
    extra = draw(st.lists(st.integers(0, q - 1), min_size=k * (n - k),
                          max_size=k * (n - k)))
    gen = np.hstack([np.eye(k, dtype=int), np.array(extra).reshape(k, n - k)])
    order = draw(st.permutations(range(n)))
    return cs.LinearCode(q=q, generator=gen[:, order])


def walk_labels(min_len, max_len):
    """Closed label sequences over 1..3, self-loops included."""
    return st.lists(st.integers(1, 3), min_size=min_len, max_size=max_len).map(
        lambda body: tuple(body) + (body[0],))


def test_canonicalization_idempotent():
    raw = (4, 9, 4, 2, 4)
    canon = canonical_labels(raw)
    assert canon == (1, 2, 1, 3, 1)
    assert canonical_labels(canon) == canon


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=7), st.permutations(range(1, 10)))
def test_canonicalization_orbit_invariance(body, perm):
    labels = tuple(body) + (body[0],)
    relabeled = tuple(perm[x - 1] for x in labels)
    assert canonical_labels(labels) == canonical_labels(relabeled)


def test_closed_path_validation():
    with pytest.raises(ParameterError):
        cs.ClosedPath((1, 2, 3))  # not closed
    with pytest.raises(ParameterError):
        cs.ClosedPath((4,))  # no step
    assert cs.ClosedPath((2, 1, 2)).labels == (1, 2, 1)  # canonicalized
    p = cs.ClosedPath((3, 7, 3))
    assert p.labels == (1, 2, 1)
    assert p.length == 2 and p.v == 2 and p.is_simple
    assert p == cs.ClosedPath([np.int64(1), 2, 1]) == cs.ClosedPath(p.labels)


def test_enumerate_length_two():
    simple = cs.enumerate_closed_classes(2, simple=True)
    assert [p.labels for p in simple] == [(1, 2, 1)]
    both = cs.enumerate_closed_classes(2, simple=False)
    assert sorted(p.labels for p in both) == [(1, 1, 1), (1, 2, 1)]


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ParameterError):
        cs.enumerate_closed_classes(0, simple=True)
    with pytest.raises(ParameterError):
        cs.enumerate_closed_classes(11, simple=True)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_class_count_bound(ell):
    # at most v^ell classes with v distinct labels
    classes = cs.enumerate_closed_classes(ell, simple=True)
    by_v = {}
    for p in classes:
        by_v[p.v] = by_v.get(p.v, 0) + 1
    for v, count in by_v.items():
        assert count < v**ell


def brute_force_walks(ell, simple, prefix=()):
    """Sorted canonical labels of prefix + w over every closed walk w of
    length ell on ell + len(prefix) labels, taken from itertools.product;
    `simple` drops walks with a self-loop step."""
    out = set()
    for body in itertools.product(range(1, ell + len(prefix) + 1), repeat=ell):
        walk = body + body[:1]
        if not (simple and any(a == b for a, b in zip(walk, walk[1:]))):
            out.add(canonical_labels(prefix + walk))
    return sorted(out)


# The audit's JSON lists classes and pairs in enumeration order, so its
# bytes depend on that order.
@pytest.mark.parametrize("ell", range(1, 7))
def test_closed_classes_in_brute_force_order(ell):
    for simple in (False, True):
        got = [path.labels for path in cs.enumerate_closed_classes(ell, simple)]
        assert got == brute_force_walks(ell, simple)


@pytest.mark.parametrize("ell", range(1, 5))
def test_pair_classes_in_brute_force_order(ell):
    for simple in (False, True):
        want = sorted(joint for first in brute_force_walks(ell, simple)
                      for joint in brute_force_walks(ell, simple, first))
        got = [pair.labels1 + pair.labels2
               for pair in cs.enumerate_pair_classes(ell, simple)]
        assert got == want


def test_growth_strings_count_set_partitions():
    bell = [1]
    for v in range(1, 8):
        bell.append(sum(comb(v - 1, j) * bell[j] for j in range(v)))
        strings = paths._growth_strings(v, simple=False)
        assert len(strings) == bell[v]
        assert strings == sorted(set(strings))
        assert all(s[0] == 1 and all(s[j] <= max(s[:j]) + 1 for j in range(1, v))
                   for s in strings)


def test_double_tree_examples():
    assert cs.is_double_tree(cs.ClosedPath((1, 2, 1)))
    assert not cs.is_double_tree(cs.ClosedPath((1, 2, 3, 1)))
    for labels in ((1, 1, 1), (1, 1, 2, 1), (1, 2, 2, 1), (1, 2, 2, 3, 2, 1)):
        assert cs.is_double_tree(cs.ClosedPath(labels))
    # the second is a triangle walked forth and back: it reduces to nothing
    # by adjacent reversals, but crosses three edges on three vertices
    for labels in ((1, 2, 1, 1, 2, 1), (1, 2, 3, 1, 3, 2, 1)):
        assert not cs.is_double_tree(cs.ClosedPath(labels))
    l4 = [p for p in cs.enumerate_closed_classes(4, simple=True)
          if cs.is_double_tree(p)]
    assert sorted(p.labels for p in l4) == [(1, 2, 1, 3, 1), (1, 2, 3, 2, 1)]


def test_double_tree_edge_revisit_is_rejected():
    # reduces to nothing but revisits the edge {1,2}; not a double tree
    assert not cs.is_double_tree(cs.ClosedPath((1, 2, 1, 2, 1)))


def test_double_tree_classes_with_loops_are_motzkin_numbers():
    # choose the 2e non-loop steps, then a simple double tree on them:
    # M_l = sum_e C(l, 2e) Catalan(e)
    motzkin = [sum(comb(ell, 2 * e) * comb(2 * e, e) // (e + 1)
                   for e in range(ell // 2 + 1)) for ell in range(1, 9)]
    assert motzkin == [1, 2, 4, 9, 21, 51, 127, 323]
    for ell, value in zip(range(1, 9), motzkin):
        classes = cs.enumerate_closed_classes(ell, simple=False)
        assert sum(cs.is_double_tree(p) for p in classes) == value


def test_catalan_identity():
    for ell, value in ((2, 1), (4, 2), (6, 5), (8, 14), (10, 42)):
        assert cs.count_double_tree_classes(ell) == value
        assert value == 2 * comb(ell, ell // 2) // (ell + 2)
    with pytest.raises(ParameterError):
        cs.count_double_tree_classes(3)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_vertex_equations_cancel(q):
    # one equation is redundant: each variable's coefficients sum to 0 mod q
    for walks in (
        ((1, 2, 1),), ((1, 2, 3, 1),), ((1, 2, 1, 3, 1),), ((1, 1, 2, 1),),
        ((1, 2, 1), (2, 3, 2)), ((1, 2, 3, 1), (1, 3, 2, 1)), ((1, 1, 1), (1, 2, 1)),
    ):
        equations = _vertex_equations(walks, q)
        assert len(equations) == max(map(max, walks))
        totals = {}
        for eq in equations:
            assert sum(eq.values()) % q == 0  # _eliminate relies on this
            for var, c in eq.items():
                assert 0 < c < q
                totals[var] = totals.get(var, 0) + c
        steps = sum(len(w) - 1 for w in walks)
        assert set(totals) <= set(range(steps))
        assert all(t % q == 0 for t in totals.values()), walks


def test_count_w_single_edge(even5):
    w = cs.count_W(even5, cs.ClosedPath((1, 2, 1)))
    assert w == 5  # equations force equal columns; columns are distinct
    assert w == naive_count_w(even5, (1, 2, 1))


def test_count_w_triangle(even5):
    path = cs.ClosedPath((1, 2, 3, 1))
    w = cs.count_W(even5, path)
    assert w == naive_count_w(even5, (1, 2, 3, 1))
    assert w <= even5.n ** (path.length - path.v + 1)


@pytest.mark.parametrize("labels", [
    (1, 1, 1), (1, 2, 1, 2, 1), (1, 2, 1, 3, 1), (1, 2, 3, 2, 1),
    (1, 2, 3, 4, 1), (1, 1, 2, 1), (1, 2, 2, 1, 1),
])
def test_count_w_matches_naive_oracle(even5, labels):
    path = cs.ClosedPath(labels)
    assert cs.count_W(even5, path) == naive_count_w(even5, labels)


def test_count_w_double_tree_exact(even5, even7):
    for code in (even5, even7):
        for ell in (2, 4):
            for path in cs.enumerate_closed_classes(ell, simple=False):
                if cs.is_double_tree(path):
                    expected = code.n ** (ell - path.v + 1)
                    assert cs.count_W(code, path) == expected, path.labels


def test_count_w_budget(even7):
    with pytest.raises(ResourceError):
        cs.count_W(even7, cs.ClosedPath((1, 2) * 5 + (1,)))


def test_pair_enumeration_small():
    pairs = cs.enumerate_pair_classes(2)
    keys = {(p.labels1, p.labels2) for p in pairs}
    assert len(keys) == len(pairs) == 7
    # v_meet spans 0..2 at length 2
    assert {p.v_meet for p in pairs} == {0, 1, 2}
    for p in pairs:
        assert p.v_union + p.v_meet == len(set(p.labels1)) + len(set(p.labels2))


def test_count_w_pair_conjugates_second_walk():
    # over F_3 the sign of the second walk matters: a triangle paired with
    # itself and with its reversal have different counts
    for labels2, expected in (((1, 2, 3, 1), 124), ((1, 3, 2, 1), 106)):
        pair = cs.PathPair((1, 2, 3, 1), labels2)
        assert naive_count_w(TERNARY, pair.labels1, pair.labels2) == expected
        assert cs.count_W_pair(TERNARY, pair) == expected


def test_path_pair_joint_canonical():
    pair = cs.PathPair((5, 9, 5), (9, 5, 9))
    assert pair.labels1 == (1, 2, 1)
    assert pair.labels2 == (2, 1, 2)
    # fresh labels out of first-use order are renamed in first-use order
    pair = cs.PathPair((1, 2, 1), (4, 3, 4))
    assert (pair.labels1, pair.labels2) == ((1, 2, 1), (3, 4, 3))
    with pytest.raises(ParameterError):
        cs.PathPair((1, 2, 1), (1, 2, 3))  # second walk not closed
    with pytest.raises(ParameterError):
        cs.PathPair((1, 2, 3), (1, 2, 1))  # first walk not closed
    with pytest.raises(ParameterError):
        cs.PathPair((1, 2, 1), (1, 2, 3, 1))  # unequal lengths


def test_lemma3_zero_case_l2(even5):
    for pair in cs.enumerate_pair_classes(2):
        if pair.v_meet > 1:
            continue
        wp = cs.count_W_pair(even5, pair)
        w1 = cs.count_W(even5, cs.ClosedPath(pair.labels1))
        w2 = cs.count_W(even5, cs.ClosedPath(pair.labels2))
        assert wp == w1 * w2, (pair.labels1, pair.labels2)


def test_pair_redundant_equation_deletion(even5):
    for pair in cs.enumerate_pair_classes(2)[:4]:
        base = cs.count_W_pair(even5, pair)
        for vertex in range(1, pair.v_union + 1):
            assert cs.count_W_pair(even5, pair, drop_vertex=vertex) == base


def test_pair_budget(even7):
    pair = cs.PathPair((1, 2, 1, 3, 1, 4, 1), (1, 2, 1, 3, 1, 4, 1))
    with pytest.raises(ResourceError):
        cs.count_W_pair(even7, pair)


def test_count_budget_boundary():
    # all-loop walks leave every equation empty, so the count is n^steps
    # without building a tensor; n = 10 puts the budget at 8 steps
    even10 = cs.make_even_weight(10)
    assert COUNT_BUDGET == 10**8
    assert cs.count_W(even10, cs.ClosedPath((1,) * 9)) == 10**8
    with pytest.raises(ResourceError):
        cs.count_W(even10, cs.ClosedPath((1,) * 10))
    assert cs.count_W_pair(even10, cs.PathPair((1,) * 5, (1,) * 5)) == 10**8
    with pytest.raises(ResourceError):
        cs.count_W_pair(even10, cs.PathPair((1,) * 6, (1,) * 6))


def test_expect_omega_equals_count_w(even5):
    path = cs.ClosedPath((1, 2, 1))
    val = cs.expect_omega(even5, path, MODE_ALL_MAPS)
    assert val.imag == 0
    assert val.real == pytest.approx(5, abs=1e-9)
    assert val.real == pytest.approx(naive_expect(even5, (1, 2, 1)).real, abs=1e-9)


def test_expect_omega_constant_walk(even5):
    # every factor is <s(1), s(1)> = n
    val = cs.expect_omega(even5, cs.ClosedPath((1, 1, 1)), MODE_ALL_MAPS)
    assert val == pytest.approx(25)


def test_expect_omega_injective_gap_shrinks(even5, even7):
    gaps = {}
    for code in (even5, even7):
        rel = []
        for labels in ((1, 2, 1, 3, 1), (1, 2, 3, 2, 1)):
            path = cs.ClosedPath(labels)
            e_all = cs.expect_omega(code, path, MODE_ALL_MAPS)
            e_inj = cs.expect_omega(code, path, MODE_INJECTIVE)
            gap = abs(e_inj - e_all)
            scale = code.n ** (path.length - path.v + 2) / code.N
            assert gap <= 2.0 * scale  # observed constant is about 1.6
            rel.append(gap / code.n ** (path.length - path.v + 1))
        gaps[code.n] = max(rel)
    assert gaps[7] < gaps[5]


def test_expect_omega_mode_validation(even5):
    with pytest.raises(ParameterError):
        cs.expect_omega(even5, cs.ClosedPath((1, 2, 1)), "sometimes")


def test_expect_omega_budget():
    big = cs.make_gold(5)  # N = 1024 makes N^v blow past the budget at v=4
    with pytest.raises(ResourceError):
        cs.expect_omega(big, cs.ClosedPath((1, 2, 3, 4, 1)), MODE_ALL_MAPS)


def test_expect_omega_refuses_possible_int64_overflow():
    # N^v * l * n = 4000 is within budget, but N^v * n^l = 4e20 is past int64
    repetition = cs.LinearCode(q=2, generator=np.ones((1, 100), dtype=int))
    with pytest.raises(ResourceError):
        cs.expect_omega(repetition, cs.ClosedPath((1, 2) * 5 + (1,)), MODE_ALL_MAPS)


def test_paths_audit_l2(even5):
    audit = cs.paths_audit(even5, 2)
    checks = audit["checks"]
    assert checks["lemma1_exact_ok"]
    assert checks["character_sum_ok"]
    assert checks["catalan_identity_ok"] and checks["catalan_count"] == 1
    assert checks["lemma3_zero_ok"]
    assert checks["redundant_equation_ok"]
    assert checks["canonical_idempotent_ok"]
    assert len(audit["classes"]) == 2
    assert audit["pairs"] is not None


@settings(max_examples=60, deadline=None)
@given(small_codes(), walk_labels(1, 5))
def test_count_w_matches_oracle_on_small_codes(code, labels):
    path = cs.ClosedPath(labels)
    assert cs.count_W(code, path) == naive_count_w(code, path.labels)


@settings(max_examples=40, deadline=None)
@given(small_codes(), st.integers(2, 3), st.data())
def test_count_w_pair_matches_oracle_on_small_codes(code, ell, data):
    labels1 = data.draw(walk_labels(ell, ell))
    offset = data.draw(st.sampled_from([0, 1, 3]))  # 3 makes v_meet = 0
    labels2 = data.draw(walk_labels(ell, ell))
    pair = cs.PathPair(labels1, tuple(x + offset for x in labels2))
    drop = data.draw(st.one_of(st.none(), st.integers(1, pair.v_union)))
    expected = naive_count_w(code, pair.labels1, pair.labels2, drop_vertex=drop)
    assert cs.count_W_pair(code, pair, drop_vertex=drop) == expected


def rotate(labels, r):
    """The closed walk `labels` started at its step r."""
    ell = len(labels) - 1
    return labels[r:ell] + labels[:r + 1]


def orbit_images(labels1, labels2):
    """Every pair reached from (labels1, labels2) by rotating either walk
    and swapping the two, jointly canonicalized."""
    ell = len(labels1) - 1
    images = set()
    for r, s in itertools.product(range(ell), repeat=2):
        a, b = rotate(labels1, r), rotate(labels2, s)
        for pair in (cs.PathPair(a, b), cs.PathPair(b, a)):
            images.add((pair.labels1, pair.labels2))
    return images


@settings(max_examples=40, deadline=None)
@given(small_codes(), st.integers(1, 3), st.data())
def test_count_w_pair_swap_identity(code, ell, data):
    # the swapped pair's system is the negated one, and a rotated walk's is
    # the same with its step variables renamed, so all have the same
    # solutions; paths_audit reuses each pair's count across its orbit
    labels1 = data.draw(walk_labels(ell, ell))
    offset = data.draw(st.sampled_from([0, 1, 3]))
    labels2 = tuple(x + offset for x in data.draw(walk_labels(ell, ell)))
    r, s = data.draw(st.integers(0, ell - 1)), data.draw(st.integers(0, ell - 1))
    pair = cs.PathPair(labels1, labels2)
    swapped = cs.PathPair(labels2, labels1)
    rotated = cs.PathPair(rotate(labels1, r), rotate(labels2, s))
    expected = cs.count_W_pair(code, pair)
    assert cs.count_W_pair(code, swapped) == expected
    assert cs.count_W_pair(code, rotated) == expected


@pytest.mark.parametrize("ell,orbits", [(2, 3), (3, 6), (4, 47)])
def test_paths_audit_counts_one_pair_per_orbit(monkeypatch, ell, orbits):
    counted = []
    count_pair = paths.count_W_pair

    def recording(code, pair, drop_vertex=None, operands=None):
        if drop_vertex is None:
            counted.append((pair.labels1, pair.labels2))
        return count_pair(code, pair, drop_vertex, operands)

    monkeypatch.setattr(paths, "count_W_pair", recording)
    audit = cs.paths_audit(cs.make_even_weight(4), ell)
    assert len(counted) == orbits < len(audit["pairs"])
    for j, key in enumerate(counted):
        assert orbit_images(*key).isdisjoint(counted[j + 1:])


def test_enumerated_pairs_are_jointly_canonical():
    # enumerate_pair_classes skips PathPair's canonicalization
    for ell in range(1, 5):
        for simple in (True, False):
            for pair in cs.enumerate_pair_classes(ell, simple):
                assert pair == cs.PathPair(pair.labels1, pair.labels2)


@pytest.mark.parametrize("code,lengths", [
    (cs.make_even_weight(3), (2, 3)),
    (cs.make_even_weight(4), (2, 3, 4)),
    (cs.make_even_weight(5), (2, 3)),
    (TERNARY, (2, 3)),
    (TERNARY_6_3, (2, 3)),
    (TERNARY_REPEATED, (2, 3)),
], ids=["even3", "even4", "even5", "tern4", "tern6", "tern-repeated"])
def test_paths_audit_pair_counts_hold_across_orbits(code, lengths):
    # paths_audit computes a pair record's fields once per orbit; each
    # record's W_pair against a fresh count, with its own operands, of that
    # pair and of every image in its orbit, and its other fields against
    # the pair's own vertex sets and fresh counts of its two walks' classes
    walk_w = {}
    for ell in lengths:
        fresh = {}
        for rec in cs.paths_audit(code, ell)["pairs"]:
            labels1, labels2 = tuple(rec["labels1"]), tuple(rec["labels2"])
            pair = cs.PathPair(labels1, labels2)
            assert (rec["v_union"], rec["v_meet"]) == (pair.v_union, pair.v_meet)
            for labels in (labels1, labels2):
                path = cs.ClosedPath(labels)
                if path not in walk_w:
                    walk_w[path] = cs.count_W(code, path)
            assert rec["W1_times_W2"] == (walk_w[cs.ClosedPath(labels1)]
                                          * walk_w[cs.ClosedPath(labels2)])
            for key in orbit_images(labels1, labels2):
                if key not in fresh:
                    fresh[key] = cs.count_W_pair(code, cs.PathPair(*key))
                assert rec["W_pair"] == fresh[key]


def test_vertex_tensors_are_shared_by_canonical_coefficients():
    ops = AuditOperands(TERNARY)
    # two equations with coefficients (1, 1, 2, 2), summing to 0 mod 3
    t1, vars1 = ops.vertex_operand({4: 2, 7: 1, 9: 2, 11: 1})
    t2, vars2 = ops.vertex_operand({0: 1, 1: 2, 5: 1, 6: 2})
    assert t1 is t2
    assert vars1 == [7, 11, 4, 9] and vars2 == [0, 5, 1, 6]
    binary = AuditOperands(cs.make_even_weight(4))
    for path in cs.enumerate_closed_classes(4, simple=False):
        cs.count_W(binary.code, path, operands=binary)
    for pair in cs.enumerate_pair_classes(3):
        cs.count_W_pair(binary.code, pair, operands=binary)
    degrees = [len(coeffs) for coeffs in binary._tensors]
    assert len(degrees) == len(set(degrees))


@settings(max_examples=30, deadline=None)
@given(small_codes(), st.randoms(use_true_random=False))
@example(TERNARY_REPEATED, random.Random(0))
@example(BINARY_REPEATED, random.Random(1))
def test_counts_shared_by_renaming_match_fresh_counts(code, rnd):
    # Every pair of length <= 3 and every walk of length <= 6, counted in
    # shuffled order through one shared AuditOperands, whose vertex tensors
    # serve every later system, and through a fresh one each.  Both
    # examples repeat a column, so they count without elimination.
    systems = [(cs.count_W_pair, pair) for ell in (1, 2, 3)
               for pair in cs.enumerate_pair_classes(ell)]
    systems += [(cs.count_W, path) for ell in range(1, 7)
                for path in cs.enumerate_closed_classes(ell, simple=False)]
    rnd.shuffle(systems)
    shared = AuditOperands(code)
    for count, system in systems:
        assert count(code, system, operands=shared) == count(
            code, system, operands=AuditOperands(code))


@pytest.mark.parametrize("q,gen,eliminates", [
    (3, TERNARY.generator, True),
    (3, TERNARY_PROPORTIONAL.generator, True),
    (3, TERNARY_REPEATED.generator, False),
    (3, [[1, 0, 0], [0, 1, 0]], True),  # one zero column is still distinct
    (2, [[1, 0, 1], [0, 1, 1]], True),
    (2, [[1, 0, 1], [0, 1, 0]], False),
    (2, [[1, 0, 0, 0], [0, 1, 0, 0]], False),  # two zero columns
])
def test_elimination_needs_distinct_columns(q, gen, eliminates):
    code = cs.LinearCode(q=q, generator=np.array(gen))
    assert AuditOperands(code).eliminates == eliminates


def test_columns_beyond_63_rows_compare_and_count_unpacked():
    # a [66, 64] binary code whose column 64 repeats column 0: the columns
    # are compared as bytes, and the vertex tensors take one pass over the
    # uint64 words that hold all 64 rows
    eye = np.eye(64, dtype=int)
    code = cs.LinearCode(q=2, generator=np.hstack(
        [eye, eye[:, :1], np.ones((64, 1), dtype=int)]))
    ops = AuditOperands(code)
    assert not ops.eliminates
    for path in cs.enumerate_closed_classes(2, simple=False):
        assert cs.count_W(code, path, operands=ops) == naive_count_w(
            code, path.labels)


@pytest.mark.parametrize("n", [5, 64, 65, 66, 130])
def test_vertex_tensors_match_columns_for_every_word_count(n):
    # binary rows pack into 64-bit words: k = n - 1 takes one word up to
    # k = 64 and two or three beyond; degree 4 splits into two equal halves
    code = cs.make_even_weight(n)
    g = code.generator.astype(np.uint8)
    for degree in (1, 2, 3, 4) if n <= 8 else (1, 2, 3) if n <= 66 else (1, 2):
        # sums[r, j_1, ..., j_d] = g[r, j_1] + ... + g[r, j_d]
        sums = sum(g.reshape((code.k,) + (1,) * i + (n,) + (1,) * (degree - 1 - i))
                   for i in range(degree))
        tensor = paths._vertex_tensor(code, (1,) * degree)
        assert tensor.dtype == np.bool_
        assert (tensor == ~(sums % 2).any(axis=0)).all()


@pytest.mark.parametrize("q", [3, 5])
def test_vertex_tensors_match_columns_mod_q(q):
    # the right half-sum enters negated: at q = 3, (1, 2) means g[j_1] = g[j_2]
    rng = np.random.default_rng(q)
    columns = [np.eye(2, dtype=int), np.zeros((2, 1), dtype=int),
               rng.integers(0, q, (2, 7))]
    code = cs.LinearCode(q=q, generator=np.hstack(columns))
    g, n = code.generator, code.n
    for coeffs in [(1,), (1, 2), (2, 1), (1, 1, 2), (1, 2, q - 1), (1, 2, 2, 1),
                   (2, 1, 1, q - 1)]:
        d = len(coeffs)
        sums = sum(c * g.reshape((code.k,) + (1,) * i + (n,) + (1,) * (d - 1 - i))
                   for i, c in enumerate(coeffs))
        mask = paths._vertex_tensor(code, coeffs)
        assert mask.dtype == np.bool_
        assert (mask == ~(sums % q).any(axis=0)).all()


@pytest.mark.parametrize("code,ell,budget", [
    (cs.make_gold(5), 4, 2 << 20),  # one 31^4 mask
    (cs.make_even_weight(65), 2, 40 << 20),  # one 65^4 mask
], ids=["gold5", "even65"])
def test_vertex_masks_bound_audit_memory(code, ell, budget):
    # one byte per mask entry and half-sums of n^2 entries: the 31^4 and
    # 65^4 masks take 0.9 and 17 MiB, where four-byte entries would need
    # 3.5 and 68 MiB before any accumulator
    tracemalloc.start()
    try:
        cs.paths_audit(code, ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget


@pytest.mark.parametrize("code", [TERNARY, TERNARY_PROPORTIONAL, TERNARY_REPEATED],
                         ids=["distinct", "proportional", "repeated"])
def test_ternary_counts_match_oracle(code):
    ops = AuditOperands(code)
    for path in cs.enumerate_closed_classes(4, simple=False):
        assert cs.count_W(code, path, operands=ops) == naive_count_w(code, path.labels)
    for pair in cs.enumerate_pair_classes(3):
        assert cs.count_W_pair(code, pair, operands=ops) == naive_count_w(
            code, pair.labels1, pair.labels2)


@pytest.mark.parametrize("code", [TERNARY_REPEATED, BINARY_REPEATED],
                         ids=["ternary", "binary"])
def test_code_independent_checks_hold_on_repeated_columns(code):
    # README sorts the audit's checks into identities that hold for every
    # linear code and checks of the code; a repeated column breaks the
    # double-tree count, and none of the identities
    for ell in (2, 3, 4):
        checks = cs.paths_audit(code, ell)["checks"]
        assert not checks["lemma1_exact_ok"]
        assert checks["character_sum_ok"] and checks["lemma3_zero_ok"]
        assert checks["redundant_equation_ok"] and checks["canonical_idempotent_ok"]
        if ell % 2 == 0:
            assert checks["catalan_identity_ok"]


def test_operands_of_another_code_are_refused(even5, even7):
    with pytest.raises(ParameterError):
        cs.count_W(even5, cs.ClosedPath((1, 2, 1)), operands=AuditOperands(even7))


# sha256 of json.dumps(paths_audit(code, l), sort_keys=True).  Binary audits
# are exact, so any change of contraction order or caching must leave them
# as is; ternary expectations are complex floating-point sums, so their pins
# also fix the order in which the Gram terms are contracted.
AUDIT_SHA256 = {
    ("even", 4, 4): "8bcae169e85c5d2e85ece9a0eafaf70b2babc05a44d8e3a4b3f182a18e786aae",
    ("even", 4, 5): "6774d3337df37214e698fddc375669438f58baaa82bf9e5fa66890e38fc51a65",
    ("gold", 5, 3): "263e7811ab71fda974697e2adb1d90b34c29dcf8670c14615e24fe370696862d",
    ("gold", 5, 4): "89552fdb5c02fc58422ae523defb4384369862b610395242cafe35240f57deed",
    ("rm1", 3, 3): "23f3f8337745c2c6b0d16baa6505afab2cac4d181a4eee9d94f9f21f7d8f5a5d",
    ("even", 3, 6): "b7f791711fc5282220b13869bae63522cba632f4dae99d81a4ccee5d108d3635",
    ("even", 5, 4): "ee725b1a7b9d42261bed7224032cdeab1a3b25ab944f827c009b6043146366a4",
    ("rm1", 3, 4): "2b722086a8d272e67bf2f4f1473519dc43d0f598c28439f779ceb661bf64986c",
    ("tern", 4, 5): "e9e994157bb1750258a17973e61148667c7dcd17a6c8b4e853de3651ce446f93",
    ("tern", 6, 3): "5848a20f7207804bb227214fbcb4cc419249e5db9b3ab4d74e02f7fb39dd7b78",
    ("even", 65, 2): "52b1dbe1f79ad66ec460ea49c2b9cbebc93d341df96f1023ef2c441c9aa4366a",
}


@pytest.mark.parametrize("family,size,ell", sorted(AUDIT_SHA256))
def test_paths_audit_is_pinned(family, size, ell):
    make = {"even": cs.make_even_weight, "gold": cs.make_gold, "rm1": cs.make_rm1,
            "tern": {4: TERNARY, 6: TERNARY_6_3}.get}
    audit = cs.paths_audit(make[family](size), ell)
    digest = hashlib.sha256(json.dumps(audit, sort_keys=True).encode()).hexdigest()
    assert digest == AUDIT_SHA256[family, size, ell]


def test_paths_audit_command_writes_the_pinned_audit(tmp_path, capsys):
    argv = ["paths-audit", "--code", "even", "--n", "4", "--lmax", "4",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    text = (tmp_path / "paths_audit.json").read_text()
    summary = json.loads(text)
    assert text == json.dumps(summary, sort_keys=True) + "\n"
    assert capsys.readouterr().out == text
    audit = json.dumps(summary["audit"], sort_keys=True)
    assert audit in text
    digest = hashlib.sha256(audit.encode()).hexdigest()
    assert digest == AUDIT_SHA256["even", 4, 4]


@settings(max_examples=40, deadline=None)
@given(small_codes(), walk_labels(1, 4))
def test_expect_omega_matches_oracle_on_small_codes(code, labels):
    path = cs.ClosedPath(labels)
    for mode, injective in ((MODE_ALL_MAPS, False), (MODE_INJECTIVE, True)):
        if injective and path.v > code.N:
            continue
        got = cs.expect_omega(code, path, mode)
        want = naive_expect(code, path.labels, injective)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_paths_audit_more_vertices_than_codewords():
    code = cs.make_even_weight(3)  # N = 4 codewords, walks of length 6 reach v = 7
    audit = cs.paths_audit(code, 6)
    crowded = [r for r in audit["classes"] if r["v"] > code.N]
    assert crowded
    for rec in audit["classes"]:
        assert rec["expectation_all"] is not None
        assert (rec["expectation_injective"] is None) == (rec["v"] > code.N)
    assert audit["checks"]["character_sum_ok"]
    with pytest.raises(ParameterError):
        cs.expect_omega(code, cs.ClosedPath(crowded[0]["labels"]), MODE_INJECTIVE)
