"""Closed-walk combinatorics: canonical classes, double trees, exact counts.

A closed walk gamma: [0..l] -> [1..p] is stored canonically (labels appear
in first-use order), one representative per relabeling orbit.  Every walk
carries a system of per-vertex column-sum equations over the generator
matrix; the number W of its solutions equals the exact all-maps average of
the walk's inner-product product.  `paths_audit` computes both sides of
that identity independently and compares them.

Column side (W, W_pair): `_vertex_equations` writes each vertex's
column-sum equation as {variable: coefficient mod q}, dropping the
variables whose coefficients cancel.  A pair's system is its two walks'
systems glued on their shared vertices, the second walk negated.  Any one
equation follows from the others, and `_count_solutions` leaves one out.
Every equation's coefficients sum to 0 mod q, so when the code's columns
are pairwise distinct (checked once per `AuditOperands`), `_eliminate`
reads each degree-2 equation c (g[t_a] - g[t_b]) = 0 as t_a = t_b and
substitutes t_a for t_b.  That keeps the solution set of the equations
kept, so the one left out still follows from them.  Each equation left
becomes a bool mask over its variables, one byte per entry, True where
the weighted column sum vanishes mod q (for binary codes, where the XOR
of the columns packed into 64-bit words is 0); `_vertex_tensor` builds it
by comparing two half-sums, so nothing larger than the mask is
allocated.  W is the contraction of these masks, accumulated in int32,
times n for every variable neither substituted nor constrained;
`_count_solutions` refuses n^(number of steps) above COUNT_BUDGET, which
keeps it exact.
`_contract` folds the masks in vertex-label order, summing a variable
out once no later mask carries it.  Each system is folded afresh, but
its masks are built once per audit in the audit's `AuditOperands`:
sorted by coefficient, an equation shares its mask with every
reordering of it, so a binary code needs at most one mask per degree.

W_pair is constant on each orbit of a pair under rotating either walk
(rot^r w = w[r:l] + w[:r+1], the walk started at its step r) and swapping
the two.  A rotation only renames that walk's step variables, and the
swap negates the system; neither changes the number of solutions, for
any prime q.  Neither changes either walk's vertex set or count W, so
v_union, v_meet and W1 * W2 are constant on the orbit as well.
`paths_audit` therefore computes these four fields once, for the first
pair of each orbit, and gives the record of every image the same values:
at l = 2, 3 and 4 the 7, 34 and 738 pairs fall into 3, 6 and 47 orbits.
The images come from rotation tables: each walk's distinct rotations,
listed once even for a rotation-symmetric walk, each with the map that
relabels it in first-use order.  An image's second walk continues the
map of its first, so no image is canonicalized from scratch, and the
swapped images are built only for the 24 of the 47 orbits at l = 4 whose
swap is not already a rotation image.

Codeword side (expect_omega): the all-maps sum is the codeword Gram
matrix K = <s(c), s(c')> contracted over the walk's edges; a self-loop
contributes <s(c), s(c)> = n, the diagonal of K.  Since K is unchanged
when one codeword is added to both arguments, the sum is N times its part
with the walk's first vertex pinned to the zero codeword: a walk on v
vertices is a contraction over v - 1 codeword indices, edges at the first
vertex read only the row K[0, :], and the full N x N matrix is built only
for v >= 3, where the budget keeps N small.  The injective sum follows by
Moebius inversion over the set partitions of the walk's vertices: each
partition contributes the all-maps sum of the quotient walk, weighted by
prod over blocks B of (-1)^(|B|-1) (|B|-1)!.  A quotient walk is itself
a canonical walk, and many classes share it, so `AuditOperands` decodes
the codewords, builds K[0, :] and K, and folds each walk's Gram terms
(in step order, through `_contract`) once per audit.  Binary codes keep K
and every partial sum in int64, so their expectations are exact ratios of
integers.

Double-tree detection: self-loop steps cancel singly, the remaining steps
must cancel as adjacent reversals (stack reduction), and the vertex count
must equal 1 + (non-loop steps)/2.  The count condition is what forces
each reduced edge to be traversed exactly twice with a tree underneath;
reduction alone also accepts walks that retraverse an edge (for example
1,2,1,2,1), whose solution counts fall strictly below the double-tree
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, perm

import numpy as np

from .codes import LinearCode, char_map, codewords
from .errors import ParameterError, ResourceError

MAX_LENGTH = 10
# Column-side budget on n^(number of steps): n^l for a walk, n^(2l) for a
# pair.  It bounds a vertex mask at n^s bytes for s steps, plus one
# temporary mask of the same size while a code with several rows is
# folded in; every partial sum of the contraction is a count no larger
# than n^s, so at 10^8 the int32 accumulation is exact.
COUNT_BUDGET = 10**8
# Codeword-side budget on N^v * l * n.  With n^l <= COUNT_BUDGET it keeps
# N^v * n^l, which bounds every partial sum of a binary Gram contraction,
# below 2^63; for v >= 3, the only walks that read the full N x N Gram,
# it keeps that matrix under 5 * 10^5 entries.
OMEGA_BUDGET = 10**9

MODE_ALL_MAPS = "all_maps"
MODE_INJECTIVE = "injective"


def _relabel(seq, names: dict[int, int]) -> tuple[int, ...]:
    """`seq` relabelled by `names`, which is extended, in place and in
    first-use order, to the labels of `seq` it does not cover."""
    return tuple([names.setdefault(x, len(names) + 1) for x in seq])


def canonical_labels(labels) -> tuple[int, ...]:
    """Relabel so values appear in first-use order 1, 2, 3, ..."""
    return _relabel(labels, {})


def _closed_walk(labels) -> tuple[int, ...]:
    """`labels` as a tuple of ints, refused unless it is a closed walk."""
    seq = tuple(int(x) for x in labels)
    if len(seq) < 2 or seq[0] != seq[-1]:
        raise ParameterError(f"not a closed walk: {seq}")
    return seq


@dataclass(frozen=True)
class ClosedPath:
    """A closed walk up to vertex relabeling, stored canonically."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", canonical_labels(_closed_walk(self.labels)))

    @property
    def length(self) -> int:
        return len(self.labels) - 1

    @property
    def v(self) -> int:
        """Number of distinct vertices."""
        return max(self.labels)

    @property
    def is_simple(self) -> bool:
        return all(a != b for a, b in zip(self.labels, self.labels[1:]))


def enumerate_closed_classes(length: int, simple: bool) -> list[ClosedPath]:
    """All canonical classes of closed walks of the given length."""
    if not 1 <= length <= MAX_LENGTH:
        raise ParameterError(f"length must lie in [1, {MAX_LENGTH}], got {length}")
    return [
        ClosedPath(seq + (1,))
        for seq in _growth_strings(length, simple)
        if not (simple and seq[-1] == 1)
    ]


def _growth_strings(
    length: int, simple: bool, first: int = 1, used: int = 1
) -> list[tuple[int, ...]]:
    """Label sequences of the given length that start at `first` and never
    exceed one above the largest label so far (counting `used` as seen), in
    lexicographic order; `simple` forbids equal neighbours.  With the
    defaults these are the restricted-growth strings, one per set partition
    of `length` items.  Built level by level: each level lists its prefixes
    in lexicographic order with their largest label, and extends each by
    every allowed label in increasing order, so the next level is in
    lexicographic order too."""
    level = [((first,), max(used, first))]
    for _ in range(length - 1):
        level = [
            (seq + (lab,), top + (lab > top))
            for seq, top in level
            for lab in range(1, top + 2)
            if not (simple and lab == seq[-1])
        ]
    return [seq for seq, _ in level]


def is_double_tree(path: ClosedPath) -> bool:
    """Walk reduces to nothing: loops cancel singly, other steps in
    adjacent reversal pairs, with the tree vertex count 1 + edges/2."""
    steps = [(path.labels[j], path.labels[j + 1]) for j in range(path.length)]
    core = [s for s in steps if s[0] != s[1]]
    if len(core) % 2:
        return False
    if path.v != 1 + len(core) // 2:
        return False
    stack: list[tuple[int, int]] = []
    for a, b in core:
        if stack and stack[-1] == (b, a):
            stack.pop()
        else:
            stack.append((a, b))
    return not stack


def count_double_tree_classes(length: int) -> int:
    """Simple double-tree classes at even length; equals Catalan(length/2)."""
    if length % 2:
        raise ParameterError(f"length must be even, got {length}")
    return sum(
        1 for p in enumerate_closed_classes(length, simple=True) if is_double_tree(p)
    )


@dataclass(frozen=True)
class PathPair:
    """Two same-length closed walks up to one simultaneous relabeling,
    stored jointly canonical."""

    labels1: tuple[int, ...]
    labels2: tuple[int, ...]

    def __post_init__(self) -> None:
        a, b = _closed_walk(self.labels1), _closed_walk(self.labels2)
        if len(a) != len(b):
            raise ParameterError("paired walks must have equal length")
        names: dict[int, int] = {}
        object.__setattr__(self, "labels1", _relabel(a, names))
        object.__setattr__(self, "labels2", _relabel(b, names))

    @classmethod
    def _unchecked(cls, labels1: tuple[int, ...], labels2: tuple[int, ...]) -> PathPair:
        """A pair whose labels are known to be jointly canonical."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "labels1", labels1)
        object.__setattr__(pair, "labels2", labels2)
        return pair

    @property
    def length(self) -> int:
        return len(self.labels1) - 1

    @property
    def v_union(self) -> int:
        return len(set(self.labels1) | set(self.labels2))

    @property
    def v_meet(self) -> int:
        return len(set(self.labels1) & set(self.labels2))


def enumerate_pair_classes(length: int, simple: bool = True) -> list[PathPair]:
    """All canonical ordered pairs of (simple) closed classes, up to a
    single simultaneous relabeling.  Each is jointly canonical by
    construction (the second walk's growth string continues the first's
    labels), so it is built without re-canonicalization."""
    return [
        PathPair._unchecked(p1.labels, seq + (seq[0],))
        for p1 in enumerate_closed_classes(length, simple)
        for start in range(1, p1.v + 2)
        for seq in _growth_strings(length, simple, start, p1.v)
        if not (simple and seq[-1] == seq[0])
    ]


def _vertex_equations(walks, q: int) -> list[dict[int, int]]:
    """Column-sum equation of each vertex of one walk, or of a jointly
    labelled pair, as {variable: coefficient mod q} without zero terms.

    Variable w*l + j stands for the column index t_j of walk w, with the
    closing index identified (t_l = t_0); step u adds +g[t_u] - g[t_{u-1}]
    to the equation of its head vertex.  So t_j has coefficient +1 at
    labels[j] and -1 at labels[j+1], and none at all when step j+1 is a
    self-loop, where the two cancel: no coefficient is ever summed.  The
    second walk's product enters conjugated, so its coefficients have the
    opposite signs.  Each variable's coefficients sum to zero over the
    equations, so any one equation follows from the others.
    """
    ell = len(walks[0]) - 1
    eqs: list[dict[int, int]] = [{} for _ in range(max(map(max, walks)))]
    for w, labels in enumerate(walks):
        plus, minus = (q - 1, 1) if w else (1, q - 1)
        for u in range(1, ell + 1):
            head = labels[u]
            eq = eqs[head - 1]
            if labels[u % ell + 1] != head:
                eq[w * ell + u % ell] = plus
            if labels[u - 1] != head:
                eq[w * ell + u - 1] = minus
    return eqs


class AuditOperands:
    """Code-dependent operands shared by every count and expectation of one
    audit, each built on first use: the vertex masks, keyed by sorted
    coefficients; whether the columns allow elimination; the codeword Gram
    row K[0, :] and matrix K; and the all-maps Gram sum of each walk.
    count_W, count_W_pair and expect_omega take one as `operands`; without
    it, each call builds its own."""

    def __init__(self, code: LinearCode):
        self.code = code
        self._tensors: dict[tuple[int, ...], np.ndarray] = {}
        self._sums: dict[tuple[int, ...], int | complex] = {}

    def vertex_operand(self, eq: dict[int, int]) -> tuple[np.ndarray, list[int]]:
        """The bool mask of a vertex equation and the variable of each axis.

        Reordering an equation's terms leaves its solutions unchanged, so its
        terms are sorted by coefficient, and equations with the same sorted
        coefficient tuple share one mask: a binary code, whose coefficients
        are all 1, has at most one mask per degree.
        """
        terms = sorted((c, var) for var, c in eq.items())
        coeffs = tuple(c for c, _ in terms)
        if coeffs not in self._tensors:
            self._tensors[coeffs] = _vertex_tensor(self.code, coeffs)
        return self._tensors[coeffs], [var for _, var in terms]

    @cached_property
    def eliminates(self) -> bool:
        """Whether the columns are pairwise distinct, the precondition of
        `_eliminate`.  For every q and k, each column is compared as the
        byte string of a row of one narrow-dtype copy of the transposed
        generator, in a Python set: not np.unique, which would import
        numpy.ma (0.8 MB of resident memory)."""
        code = self.code
        cols = np.ascontiguousarray(code.generator.T, np.min_scalar_type(code.q - 1))
        return len({col.tobytes() for col in cols}) == code.n

    def all_maps_sum(self, labels: tuple[int, ...]):
        """Sum over all maps f from the vertices of the connected closed walk
        `labels` (canonical) to the codewords of the product over its steps
        (a, b) of K[f(a), f(b)], computed once per walk.

        Adding one codeword to every image leaves each K entry unchanged, so
        the sum is N times its part with vertex 1 sent to the zero codeword;
        steps at vertex 1 then need only the row K[0, :], and the full K is
        read only for steps that avoid vertex 1.
        """
        if labels not in self._sums:
            terms: list = []
            loops = 0
            for a, b in zip(labels, labels[1:]):
                if a == b:
                    loops += 1
                elif a == 1:
                    terms.append((self.first_row, [b - 1]))
                elif b == 1:
                    terms.append((self.first_row.conj(), [a - 1]))
                else:
                    terms.append((self.gram, [a - 1, b - 1]))
            total = self.code.N * self.code.n**loops
            if terms:
                total *= _contract(terms).item()
            self._sums[labels] = total
        return self._sums[labels]

    @cached_property
    def _codeword_rows(self) -> np.ndarray:
        code = self.code
        rows = char_map(codewords(code, np.arange(code.N)), code.q)
        return rows.astype(np.int64) if code.q == 2 else rows  # binary K: exact ints

    @cached_property
    def first_row(self) -> np.ndarray:
        """K[0, :], the Gram row of the zero codeword."""
        return self._codeword_rows.conj() @ self._codeword_rows[0]

    @cached_property
    def gram(self) -> np.ndarray:
        """The full N x N codeword Gram matrix K."""
        return self._codeword_rows @ self._codeword_rows.conj().T


def _operands_for(code: LinearCode, operands: AuditOperands | None) -> AuditOperands:
    if operands is None:
        return AuditOperands(code)
    if operands.code is not code:
        raise ParameterError("the audit operands were built for another code")
    return operands


def _vertex_tensor(code: LinearCode, coeffs: tuple[int, ...]) -> np.ndarray:
    """Bool mask over d = len(coeffs) column indices: entry [j_1, ..., j_d]
    is True where sum_i coeffs[i] * g[:, j_i] = 0 mod q, built one row at a
    time as the broadcast test left == right.  The left half-sum is the
    weighted sum over the first ceil(d/2) indices, the right one minus the
    weighted sum over the others (the coefficients negated mod q), so the
    build allocates half-sums of at most n^ceil(d/2) entries next to the
    n^d mask.  A binary code's rows are the word rows of its packed columns,
    each cast to the smallest unsigned type that holds it and summed by XOR
    (every coefficient is 1, its own negative), so k <= 64 takes one pass;
    the masks of further rows, and of every row of a q > 2 code, are folded
    in with &=."""
    q, half = code.q, (len(coeffs) + 1) // 2
    if q == 2:
        rows = [w.astype(np.min_scalar_type(int(w.max()))) for w in code._column_words]
    else:
        rows = code.generator.astype(np.min_scalar_type(q**2))
    negated = [-c % q for c in coeffs[half:]]

    def half_sum(row, cs):
        acc = np.zeros((), row.dtype)
        for c in cs:
            acc = acc[..., None] ^ row if q == 2 else (acc[..., None] + c * row % q) % q
        return acc

    mask = None
    for row in rows:
        left, right = half_sum(row, coeffs[:half]), half_sum(row, negated)
        ok = left.reshape(left.shape + (1,) * right.ndim) == right
        if mask is None:
            mask = ok
        else:
            mask &= ok
    return mask


def _contract(terms: list[tuple[np.ndarray, list[int]]]) -> np.ndarray:
    """Sum over all axis labels of the product of (array, labels) `terms`,
    as a 0-d array: a left-to-right fold of plain einsum calls that sums
    each label out as soon as no later term carries it (within its own
    term when no other term does).  Bool mask terms are counted in int32;
    other terms keep their own dtype."""
    dtype = np.int32 if terms[0][0].dtype == np.bool_ else None
    last = {x: j for j, (_, axes) in enumerate(terms) for x in axes}
    acc_axes: list[int] = []
    for j, (op, axes) in enumerate(terms):
        keep = [x for x in axes if x in acc_axes or last[x] > j]
        if len(keep) < len(axes):
            op, axes = np.einsum(op, axes, keep, dtype=dtype), keep
        if j:
            out = [x for x in dict.fromkeys(acc_axes + axes) if last[x] > j]
            op, axes = np.einsum(acc, acc_axes, op, axes, out, dtype=dtype), out
        acc, acc_axes = op, axes
    return acc


def _eliminate(equations: list[dict[int, int]], q: int) -> int:
    """Solve away, in place, the equations of degree at most 2 over pairwise
    distinct columns; returns the number of variables substituted.  Each
    step adds +1 and -1 to one equation, and substitution keeps every
    equation's coefficient sum at 0 mod q, so no equation has degree 1 and
    one of degree 2 is c (g[t_a] - g[t_b]) = 0, that is t_a = t_b."""
    substituted = 0
    while short := [j for j, eq in enumerate(equations) if len(eq) < 3]:
        eq = equations.pop(short[0])
        if eq:
            (a, _), (b, _) = eq.items()
            substituted += 1
            for other in equations:
                if b in other:
                    c = (other.pop(b) + other.get(a, 0)) % q
                    if c:
                        other[a] = c
                    else:
                        del other[a]
    return substituted


def _count_solutions(
    code: LinearCode, walks, drop_vertex: int | None, operands: AuditOperands
) -> int:
    """Exact number of column-index tuples, one index per step of `walks`,
    that solve every vertex equation, leaving out the equation at
    `drop_vertex` or, by default, the widest: `_eliminate` where the
    operands allow it, then the `_contract` fold of the vertex masks of
    the equations left, in vertex-label order, accumulated in int32.

    Every mask holds at most n^(number of steps) entries, and every
    intermediate of the fold is a count no larger, which COUNT_BUDGET
    keeps within int32, so the count is exact.
    """
    steps = sum(len(labels) - 1 for labels in walks)
    total = code.n**steps
    if total > COUNT_BUDGET:
        raise ResourceError(
            f"n^{steps} = {total} exceeds the exact-count budget {COUNT_BUDGET}"
        )
    equations = _vertex_equations(walks, code.q)
    if drop_vertex is None:
        drop_vertex = 1 + max(range(len(equations)), key=lambda a: len(equations[a]))
    equations = [eq for a, eq in enumerate(equations, start=1)
                 if eq and a != drop_vertex]
    substituted = _eliminate(equations, code.q) if operands.eliminates else 0
    constrained = {var for eq in equations for var in eq}
    free = code.n ** (steps - substituted - len(constrained))
    if not equations:
        return free
    terms = [operands.vertex_operand(eq) for eq in equations]
    return int(_contract(terms)) * free


def count_W(
    code: LinearCode, path: ClosedPath, operands: AuditOperands | None = None
) -> int:
    """Number of column-index tuples solving every vertex equation."""
    return _count_solutions(
        code, (path.labels,), None, _operands_for(code, operands)
    )


def count_W_pair(
    code: LinearCode,
    pair: PathPair,
    drop_vertex: int | None = None,
    operands: AuditOperands | None = None,
) -> int:
    """Solutions of the joint pair system.  One equation is always
    redundant: the count leaves out the widest one, or the one at
    `drop_vertex` (1-based label), which must not change the count."""
    return _count_solutions(
        code, (pair.labels1, pair.labels2), drop_vertex, _operands_for(code, operands)
    )


def expect_omega(
    code: LinearCode,
    path: ClosedPath,
    mode: str,
    operands: AuditOperands | None = None,
) -> complex:
    """Exact average of prod_j <s(gamma(j)), s(gamma(j+1))> over maps from
    the walk's vertices to the character-mapped code (all maps or only
    injective ones)."""
    if mode not in (MODE_ALL_MAPS, MODE_INJECTIVE):
        raise ParameterError(f"unknown expectation mode: {mode!r}")
    v, ell, n, big_n = path.v, path.length, code.n, code.N
    cost = big_n**v * ell * n
    if cost > OMEGA_BUDGET:
        raise ResourceError(
            f"N^v * l * n = {cost} exceeds the exact-sum budget {OMEGA_BUDGET}"
        )
    if code.q == 2 and big_n**v * n**ell > np.iinfo(np.int64).max:
        raise ResourceError(
            f"N^v * n^l = {big_n**v * n**ell} could overflow the int64 Gram sum"
        )
    if mode == MODE_INJECTIVE and big_n < v:
        raise ParameterError(f"no injective maps: N={big_n} < v={v}")

    operands = _operands_for(code, operands)
    if mode == MODE_ALL_MAPS:
        return complex(operands.all_maps_sum(path.labels) / big_n**v)
    total = 0
    for blocks in _growth_strings(v, simple=False):
        weight = 1
        for b in range(1, max(blocks) + 1):
            size = blocks.count(b)
            weight *= (-1) ** (size - 1) * factorial(size - 1)
        quotient = tuple(blocks[x - 1] for x in path.labels)
        total += weight * operands.all_maps_sum(quotient)
    return complex(total / perm(big_n, v))


def _rotations(labels: tuple[int, ...]):
    """Each distinct rotation of a closed walk (rot^r w = w[r:l] + w[:r+1])
    as (rotation, its canonical labels, the first-use map between them); a
    rotation-symmetric walk lists each of its rotations once."""
    ell = len(labels) - 1
    table: dict[tuple[int, ...], tuple] = {}
    for r in range(ell):
        rot = labels[r:ell] + labels[:r + 1]
        if rot not in table:
            names: dict[int, int] = {}
            table[rot] = (rot, _relabel(rot, names), names)
    return list(table.values())


def _orbit(labels1: tuple[int, ...], labels2: tuple[int, ...]) -> set:
    """Jointly canonical labels, as (labels1, labels2), of every image of a
    pair under rotating either walk and swapping the two.  Each walk's
    distinct rotations are relabelled once; an image's second walk
    continues the map of its first.  The swapped images are the rotation
    images of the swapped pair, so they are built only when that pair is
    not already a rotation image, else they would repeat the others."""
    rot1, rot2 = _rotations(labels1), _rotations(labels2)
    images = {(canon_a, _relabel(b, dict(names_a)))
              for _, canon_a, names_a in rot1 for b, _, _ in rot2}
    _, canon2, names2 = rot2[0]  # rotation 0: labels2 itself
    if (canon2, _relabel(labels1, dict(names2))) not in images:
        images.update((canon_b, _relabel(a, dict(names_b)))
                      for _, canon_b, names_b in rot2 for a, _, _ in rot1)
    return images


def paths_audit(code: LinearCode, length: int) -> dict:
    """Per-class exact audit plus the module's invariant booleans."""
    n = code.n
    operands = AuditOperands(code)
    records = []
    w_of: dict[tuple[int, ...], int] = {}
    for path in enumerate_closed_classes(length, simple=False):
        try:
            w = count_W(code, path, operands=operands)
        except ResourceError as exc:
            raise ResourceError(f"class {path.labels}: {exc}") from None
        w_of[path.labels] = w
        dt = is_double_tree(path)
        rec = {
            "labels": list(path.labels),
            "l": path.length,
            "v": path.v,
            "simple": path.is_simple,
            "double_tree": dt,
            "W": w,
            "double_tree_value": n ** (path.length - path.v + 1),
            "expectation_all": None,
            "expectation_injective": None,
        }
        if code.N**path.v * path.length * n <= OMEGA_BUDGET:
            e_all = expect_omega(code, path, MODE_ALL_MAPS, operands=operands)
            rec["expectation_all"] = [e_all.real, e_all.imag]
            if path.v <= code.N:
                e_inj = expect_omega(code, path, MODE_INJECTIVE, operands=operands)
                rec["expectation_injective"] = [e_inj.real, e_inj.imag]
        records.append(rec)

    dt_records = [r for r in records if r["double_tree"]]
    other = [r for r in records if not r["double_tree"]]
    lemma1_exact_ok = all(r["W"] == r["double_tree_value"] for r in dt_records)
    ratios = [
        r["W"] / n ** (r["l"] - r["v"]) for r in other
    ]
    compared = [(r["W"], *r["expectation_all"]) for r in records
                if r["expectation_all"] is not None]
    char_ok = not any(abs(im) > 1e-9 * max(1.0, abs(re)) or abs(re - w) > 1e-6
                      for w, re, im in compared) if compared else None

    checks = {
        "lemma1_exact_ok": lemma1_exact_ok,
        "character_sum_ok": char_ok,
        "max_non_double_tree_ratio": max(ratios) if ratios else 0.0,
        "canonical_idempotent_ok": all(
            canonical_labels(tuple(r["labels"])) == tuple(r["labels"])
            for r in records
        ),
    }
    if length % 2 == 0:
        enumerated = count_double_tree_classes(length)
        formula = 2 * comb(length, length // 2) // (length + 2)
        checks["catalan_count"] = enumerated
        checks["catalan_identity_ok"] = enumerated == formula

    pair_section = None
    if n ** (2 * length) <= COUNT_BUDGET and length <= 4:
        pair_list = enumerate_pair_classes(length, simple=True)
        # Every field but the labels is constant on each orbit of rotations
        # and the swap (see the module docstring): the first pair of an
        # orbit computes them, and every image's record gets the same.
        body_of: dict[tuple[tuple[int, ...], tuple[int, ...]], dict] = {}
        bodies = []
        pair_records = []
        for pair in pair_list:
            key = (pair.labels1, pair.labels2)
            body = body_of.get(key)
            if body is None:
                body = {
                    "v_union": pair.v_union,
                    "v_meet": pair.v_meet,
                    "W_pair": count_W_pair(code, pair, operands=operands),
                    "W1_times_W2": w_of[pair.labels1]
                    * w_of[canonical_labels(pair.labels2)],
                }
                bodies.append(body)
                for image in _orbit(*key):
                    body_of[image] = body
            pair_records.append(
                {"labels1": list(pair.labels1), "labels2": list(pair.labels2), **body}
            )
        checks["lemma3_zero_ok"] = all(
            body["W_pair"] == body["W1_times_W2"]
            for body in bodies
            if body["v_meet"] <= 1
        )
        redundancy_ok = True
        for pair, rec in zip(pair_list[:6], pair_records[:6]):
            for a in range(1, pair.v_union + 1):
                if count_W_pair(code, pair, drop_vertex=a,
                                operands=operands) != rec["W_pair"]:
                    redundancy_ok = False
        checks["redundant_equation_ok"] = redundancy_ok
        pair_section = pair_records

    return {
        "code": code.label,
        "n": n,
        "q": code.q,
        "N": code.N,
        "l": length,
        "classes": records,
        "pairs": pair_section,
        "checks": checks,
    }
