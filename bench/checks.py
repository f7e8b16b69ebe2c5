"""Correctness checks made apart from the program, outside the timed region.

Every figure the program writes is recomputed here by other means:

- sampled rows: +-1 entries, membership in the generator's row space over
  GF(2) (reduced row echelon form built here), weights in the family's
  known weight set, and distinct rows in distinct mode;
- eigenvalues: scipy.linalg.eigh on a Gram matrix built here;
- KS distances: from the written eigenvalues with the closed-form
  semicircle CDF and the closed-form Marchenko-Pastur CDF (Bai & Silverstein);
- moments: traces of matrix powers, no eigensolve;
- the Gold code report: the analytic weight set, coherence 2^((m+1)/2) + 1
  and dual distance at least 5;
- walk counts: every class's W as the all-maps average of prod K over the
  walk's edges (K the codeword inner-product matrix) by one numpy einsum,
  injective averages by Moebius inversion over set partitions, own
  enumeration of the classes and pairs, Catalan counts, double-tree values
  and W_pair = W1 * W2 where the walks meet in at most one vertex;
- artifacts: sha256 of every file, histogram bars that integrate to 1,
  SVG that parses;
- method properties: RM(1)'s median MP KS above Gold's, and within_bound
  for every moment order.

The sampled rows are drawn again with the program's public sampler, from
the seed and stream the job used, and every later figure is rebuilt from
those rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
import xml.etree.ElementTree as ET
from math import comb, factorial, isclose, perm, pi, sqrt
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

import codespectra
from codespectra.signal import sample_codewords

EIG_TOL = 1e-9        # Jacobi stops at 1e-12 of the Frobenius norm
# The program's MP CDF quadrature has narrow error spikes: 8.4e-6 at y=0.25
# (x=0.71845) and 2.7e-6 at y=0.5 (x=0.7262) on a 10^6-point scan.
KS_TOL = {"sc": 1e-12, "mp": 5e-5}
MOMENT_RTOL = 1e-8
HIST_TOL = 1e-9
PAIR_BUDGET = 10**8   # the documented n^(2l) limit under which paths-audit checks pairs
OMEGA_BUDGET = 10**9  # the documented N^v * l * n limit under which it reports expectations


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- laws

def sc_cdf(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * pi) + np.arcsin(x / 2.0) / pi


def mp_cdf(x: np.ndarray, y: float) -> np.ndarray:
    """Closed-form Marchenko-Pastur CDF for 0 < y < 1."""
    a, b = (1.0 - sqrt(y)) ** 2, (1.0 + sqrt(y)) ** 2
    out = np.where(x <= a, 0.0, 1.0)
    inside = (x > a) & (x < b)
    xi = x[inside]
    r = np.sqrt((b - xi) / (xi - a))
    out[inside] = (
        pi * y + np.sqrt((b - xi) * (xi - a))
        - (1.0 + y) * np.arctan((r * r - 1.0) / (2.0 * r))
        + (1.0 - y) * np.arctan((a * r * r - b) / (2.0 * (1.0 - y) * r))
    ) / (2.0 * pi * y)
    return out


def ks_distance(eigs: np.ndarray, kind: str, y: float | None) -> float:
    f = sc_cdf(eigs) if kind == "sc" else mp_cdf(eigs, y)
    p = eigs.size
    j = np.arange(1, p + 1)
    return float(max(np.abs(j / p - f).max(), np.abs((j - 1) / p - f).max()))


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------- codes

def family(call: dict) -> tuple[str, int, int, int, set[int] | None]:
    """(constructor, argument, n, k, nonzero-and-zero weight set) from the
    family's formulas, not from the program."""
    if call["code"] == "gold":
        m = call["m"]
        half, spread = 1 << (m - 1), 1 << ((m - 1) // 2)
        return "make_gold", m, (1 << m) - 1, 2 * m, {0, half - spread, half, half + spread}
    if call["code"] == "rm1":
        m = call["m"]
        return "make_rm1", m, 1 << m, m + 1, {0, 1 << (m - 1), 1 << m}
    n = call["n"]
    return "make_even_weight", n, n, n - 1, set(range(0, n + 1, 2))


def rref_gf2(gen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.array(gen, dtype=np.uint8) % 2
    pivots = []
    row = 0
    for col in range(a.shape[1]):
        hits = np.flatnonzero(a[row:, col])
        if hits.size == 0:
            continue
        a[[row, row + hits[0]]] = a[[row + hits[0], row]]
        others = np.flatnonzero(a[:, col])
        a[others[others != row]] ^= a[row]
        pivots.append(col)
        row += 1
        if row == a.shape[0]:
            break
    require(row == a.shape[0], "generator rows are dependent over GF(2)")
    return a.astype(np.int64), np.array(pivots)


class Code:
    def __init__(self, call: dict):
        maker, arg, n, k, weights = family(call)
        self.code = getattr(codespectra, maker)(arg)
        require((self.code.n, self.code.k, self.code.N) == (n, k, 2**k),
                f"{maker}({arg}) is not an [{n},{k}] binary code")
        self.n, self.k, self.weights = n, k, weights
        self.rref, self.pivots = rref_gf2(self.code.generator)

    def check_rows(self, rows: np.ndarray, distinct: bool) -> np.ndarray:
        require(not np.iscomplexobj(rows) and np.isin(rows, (-1.0, 1.0)).all(),
                "sampled rows are not +-1")
        bits = (rows < 0).astype(np.int64)
        require((bits[:, self.pivots] @ self.rref % 2 == bits).all(),
                "a sampled row lies outside the generator's row space")
        require(set(bits.sum(axis=1).tolist()) <= self.weights,
                "a sampled row has a weight the code family cannot have")
        if distinct:
            require(np.unique(bits, axis=0).shape[0] == bits.shape[0],
                    "distinct sampling returned a repeated row")
        return np.asarray(rows, dtype=float)

    def all_rows(self) -> np.ndarray:
        msgs = (np.arange(2**self.k)[:, None] >> np.arange(self.k)) & 1
        return 1.0 - 2.0 * (msgs @ self.code.generator % 2)


def gram_matrix(rows: np.ndarray, centered: bool) -> np.ndarray:
    p, n = rows.shape
    g = rows @ rows.T / n
    if not centered:
        return g
    h = sqrt(n / p) * (g - np.eye(p))
    np.fill_diagonal(h, 0.0)
    return h


def trace_moments(h: np.ndarray, lmax: int) -> list[float]:
    out, power = [], np.eye(h.shape[0])
    for _ in range(lmax):
        power = power @ h
        out.append(float(np.trace(power)) / h.shape[0])
    return out


def close(a: float, b: float, rtol: float = MOMENT_RTOL) -> bool:
    return isclose(a, b, rel_tol=rtol, abs_tol=rtol)


# ---------------------------------------------------------------- walks

def rgs(length: int):
    """Restricted growth strings of the given length, starting at 1."""
    def extend(seq, top):
        if len(seq) == length:
            yield tuple(seq)
            return
        for lab in range(1, top + 2):
            yield from extend(seq + [lab], max(top, lab))
    yield from extend([1], 1)


def is_double_tree(labels: tuple[int, ...]) -> bool:
    """Non-loop steps walk a tree on all v vertices, each edge twice."""
    core = [frozenset(e) for e in zip(labels, labels[1:]) if e[0] != e[1]]
    v = len(set(labels))
    return len(core) == 2 * (v - 1) and len(set(core)) == v - 1


def moebius(blocks: tuple[int, ...]) -> int:
    """mu(0, pi) of the set partition given as a block label per element."""
    mu = 1
    for b in set(blocks):
        size = blocks.count(b)
        mu *= (-1) ** (size - 1) * factorial(size - 1)
    return mu


class Walks:
    """Exact walk sums over all maps into one code, by einsum over K."""

    def __init__(self, code: Code):
        rows = code.all_rows()
        self.k_mat = rows @ rows.T
        self.k_diag = np.diagonal(self.k_mat).copy()
        self.N = rows.shape[0]
        self._w: dict[tuple, int] = {}

    def total(self, edges: list[tuple[int, int]]) -> float:
        letters = "abcdefghijklmnopqrstuvwxyz"
        ops, subs = [], []
        for a, b in edges:
            if a == b:
                ops.append(self.k_diag)
                subs.append(letters[a])
            else:
                ops.append(self.k_mat)
                subs.append(letters[a] + letters[b])
        return float(np.einsum(",".join(subs) + "->", *ops, optimize="greedy"))

    @staticmethod
    def edges(*walks) -> list[tuple[int, int]]:
        return [(a - 1, b - 1) for w in walks for a, b in zip(w, w[1:])]

    def exact(self, total: float, verts: int) -> int:
        w = total / self.N**verts
        require(abs(w - round(w)) < 1e-6, f"walk average {w} is not an integer")
        return round(w)

    def W(self, labels: tuple[int, ...]) -> int:
        if labels not in self._w:
            self._w[labels] = self.exact(self.total(self.edges(labels)),
                                         len(set(labels)))
        return self._w[labels]

    def injective(self, labels: tuple[int, ...]) -> float:
        v = len(set(labels))
        acc = 0.0
        for blocks in rgs(v):
            merged = tuple(blocks[x - 1] for x in labels)
            acc += moebius(blocks) * self.total(self.edges(merged))
        return acc / perm(self.N, v)


def canonical(labels) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(x, len(seen) + 1) for x in labels)


def simple_cycle(seq: tuple[int, ...]) -> bool:
    return all(a != b for a, b in zip(seq, seq[1:] + seq[:1]))


def pair_classes(length: int) -> set[tuple]:
    """Jointly canonical ordered pairs of simple closed walks."""
    out = set()
    for joint in rgs(2 * length):
        w1, w2 = joint[:length], joint[length:]
        if simple_cycle(w1) and simple_cycle(w2):
            out.add((w1 + w1[:1], w2 + w2[:1]))
    return out


# ---------------------------------------------------------------- checker

class Checker:
    """Checks one job's outputs; reference data is built once per code."""

    def __init__(self):
        self._codes: dict[tuple, Code] = {}
        self._walks: dict[tuple, Walks] = {}
        self._audits: dict[tuple, dict] = {}

    def code(self, call: dict) -> Code:
        key = family(call)[:2]
        if key not in self._codes:
            self._codes[key] = Code(call)
        return self._codes[key]

    def check_job(self, calls: list[dict], seed: int, job_dir: Path,
                  errors: list[str | None]) -> list[str | None]:
        """One message per failed call, None where the call passed."""
        out: list[str | None] = list(errors)
        medians = {}
        for i, call in enumerate(calls):
            if out[i] is not None:
                continue
            try:
                result = CHECKS[call["command"]](self, call, seed, job_dir / str(i))
            except (CheckError, OSError, LookupError, ValueError, TypeError) as exc:
                # missing or malformed outputs fail the call like wrong ones
                out[i] = f"check failed: {type(exc).__name__}: {exc}"
                continue
            if call["command"] == "mp":
                medians[(call["code"], call["m"], call["y"])] = (i, result)
        gold, rm = medians.get(("gold", 5, 0.5)), medians.get(("rm1", 5, 0.5))
        if gold and rm and not rm[1] > gold[1]:
            out[rm[0]] = (f"check failed: RM(1) median KS {rm[1]} does not "
                          f"exceed Gold's {gold[1]}")
        return out

    def spectral(self, call: dict, seed: int, out: Path) -> float:
        summary = json.loads((out / "summary.json").read_text())
        code = self.code(call)
        centered = call["command"] == "spectrum"
        kind, y = ("sc", None) if centered else ("mp", call["y"])
        p = call["p"] if centered else round(call["y"] * code.n)
        mode = "distinct" if centered else "with_replacement"
        repeats, lmax, bins = call["repeats"], call["lmax"], 40  # the CLI's --bins default
        require(summary["p"] == p and summary["mode"] == mode, "wrong p or mode")
        require((summary["code"]["n"], summary["code"]["k"]) == (code.n, code.k),
                "wrong code parameters in the summary")
        require(summary["law"] == {"kind": kind, "y": y}, "wrong law in the summary")

        names = {f"{stem}_r{r:02d}.{ext}" for r in range(repeats)
                 for stem, ext in (("eigs", "csv"), ("hist", "csv"), ("esd", "svg"))}
        require(set(summary["artifacts"]) == names, "artifact list is incomplete")
        for name, digest in summary["artifacts"].items():
            require(hashlib.sha256((out / name).read_bytes()).hexdigest() == digest,
                    f"sha256 of {name} does not match")

        require(len(summary["per_repeat"]) == repeats, "wrong number of repeats")
        for r, rec in enumerate(summary["per_repeat"]):
            rows = code.check_rows(
                sample_codewords(code.code, p, mode, seed, stream_index=r).entries,
                distinct=centered)
            h = gram_matrix(rows, centered)
            eigs = read_column(out / f"eigs_r{r:02d}.csv", "lambda")
            ref = eigh(h, eigvals_only=True)
            require(eigs.size == p and np.abs(eigs - ref).max()
                    <= EIG_TOL * max(1.0, np.abs(ref).max()),
                    f"repeat {r}: eigenvalues differ from scipy eigh")
            require(rec["eig_min"] == eigs.min() and rec["eig_max"] == eigs.max(),
                    f"repeat {r}: eig_min/eig_max disagree with the CSV")
            require(abs(ks_distance(eigs, kind, y) - rec["ks"]) <= KS_TOL[kind],
                    f"repeat {r}: KS differs from the closed-form CDF")
            moments = trace_moments(h, lmax)
            require([ell for ell, _ in rec["moments"]] == list(range(1, lmax + 1))
                    and all(close(a, b) for (_, a), b in zip(rec["moments"], moments)),
                    f"repeat {r}: trace moments differ from tr(H^l)/p")
            check_histogram(out / f"hist_r{r:02d}.csv", p, bins)
            require(ET.parse(out / f"esd_r{r:02d}.svg").getroot().tag.endswith("svg"),
                    f"repeat {r}: SVG root is not <svg>")
        ks = [rec["ks"] for rec in summary["per_repeat"]]
        require(summary["ks_values"] == ks and summary["median_ks"] == statistics.median(ks),
                "ks_values or median_ks disagree with the per-repeat values")
        return summary["median_ks"]

    def moments(self, call: dict, seed: int, out: Path) -> None:
        js = json.loads((out / "moments.json").read_text())
        code = self.code(call)
        m, n, p = call["m"], code.n, call["p"]
        rep = js["code_report"]
        # max |n - 2w| over the Gold weights: 2^((m+1)/2) + 1
        coherence = 2 ** ((m + 1) // 2) + 1
        require(set(rep["weight_set"]) == code.weights - {0},
                "code_report weight set is not the Gold set")
        require(rep["coherence"] == coherence, "code_report coherence is not 2^((m+1)/2) + 1")
        require(close(rep["coherence_constant"], coherence / sqrt(n)),
                "code_report coherence constant is wrong")
        dd = rep["dual_distance_status"]
        require(dd.lstrip(">=").isdigit() and int(dd.lstrip(">=")) >= 5,
                f"dual distance label {dd!r} is not at least 5")

        samples = [trace_moments(gram_matrix(code.check_rows(
            sample_codewords(code.code, p, "distinct", seed, stream_index=r).entries,
            distinct=True), centered=True), call["lmax"]) for r in range(call["repeats"])]
        c = coherence / sqrt(n)
        require([rec["l"] for rec in js["per_l"]] == list(range(1, call["lmax"] + 1)),
                "moment orders are incomplete")
        for rec, vals in zip(js["per_l"], zip(*samples)):
            ell = rec["l"]
            mean, var = statistics.fmean(vals), statistics.variance(vals)
            ref = 0.0 if ell % 2 else float(catalan(ell // 2))
            if ell % 2 == 0:
                scale = c**ell / p + n / code.code.N + p / n
            else:
                scale = c**ell / sqrt(p) + sqrt(p / n)
            require(close(rec["mean"], mean) and close(rec["variance"], var),
                    f"A_{ell}: mean or variance differs from tr(H^l)/p")
            require(rec["sc_moment"] == ref and close(rec["error_scale"], scale)
                    and close(rec["bound"], 3.0 * scale),
                    f"A_{ell}: reference moment or bound is wrong")
            require(rec["within_bound"] and abs(mean - ref) <= 3.0 * scale,
                    f"A_{ell}: mean {mean} is outside the bound")

    def paths_audit(self, call: dict, seed: int, out: Path) -> None:
        audit = json.loads((out / "paths_audit.json").read_text())["audit"]
        key = (family(call)[:2], call["lmax"])
        if self._audits.get(key) == audit:
            return  # the audit takes no seed: an equal one has passed already
        code = self.code(call)
        if key[0] not in self._walks:
            self._walks[key[0]] = Walks(code)
        walks, n, ell = self._walks[key[0]], code.n, call["lmax"]
        require((audit["n"], audit["N"], audit["l"]) == (n, walks.N, ell),
                "wrong code parameters in the audit")
        classes = {s + (1,) for s in rgs(ell)}
        require({tuple(r["labels"]) for r in audit["classes"]} == classes
                and len(audit["classes"]) == len(classes), "walk classes are incomplete")
        for rec in audit["classes"]:
            labels = tuple(rec["labels"])
            v, w = len(set(labels)), walks.W(labels)
            dt = is_double_tree(labels)
            require((rec["l"], rec["v"], rec["simple"], rec["double_tree"])
                    == (ell, v, simple_cycle(labels[:-1]), dt),
                    f"class {labels}: wrong l, v, simple or double-tree flag")
            require(rec["W"] == w, f"class {labels}: W={rec['W']}, einsum gives {w}")
            require(rec["double_tree_value"] == n ** (ell - v + 1)
                    and (not dt or w == n ** (ell - v + 1)),
                    f"class {labels}: double-tree value is wrong")
            if walks.N ** v * ell * n <= OMEGA_BUDGET:
                require(rec["expectation_all"] is not None
                        and rec["expectation_injective"] is not None,
                        f"class {labels}: expectations are missing")
                re_, im = rec["expectation_all"]
                require(abs(re_ - w) <= 1e-6 and abs(im) <= 1e-9,
                        f"class {labels}: all-maps expectation is not W")
                re_, im = rec["expectation_injective"]
                inj = walks.injective(labels)
                require(abs(re_ - inj) <= 1e-6 * max(1.0, abs(inj)) and abs(im) <= 1e-9,
                        f"class {labels}: injective expectation {re_} != {inj}")
        checks = audit["checks"]
        require(all(ok for ok in checks.values() if isinstance(ok, bool)),
                f"a self-check of the audit is false: {checks}")
        if ell % 2 == 0:
            dts = sum(1 for s in rgs(ell)
                      if simple_cycle(s) and is_double_tree(s + (1,)))
            require(checks["catalan_count"] == catalan(ell // 2) == dts,
                    "Catalan count is wrong")
        if n ** (2 * ell) <= PAIR_BUDGET and ell <= 4:
            require(audit["pairs"] is not None, "pair section is missing")
            pairs = pair_classes(ell)
            got = {(tuple(r["labels1"]), tuple(r["labels2"])) for r in audit["pairs"]}
            require(got == pairs and len(audit["pairs"]) == len(pairs),
                    "pair classes are incomplete")
            for rec in audit["pairs"]:
                l1, l2 = tuple(rec["labels1"]), tuple(rec["labels2"])
                union, meet = set(l1) | set(l2), set(l1) & set(l2)
                wp = walks.exact(walks.total(walks.edges(l1, l2)), len(union))
                w12 = walks.W(canonical(l1)) * walks.W(canonical(l2))
                require((rec["v_union"], rec["v_meet"]) == (len(union), len(meet)),
                        f"pair {l1},{l2}: wrong vertex counts")
                require(rec["W_pair"] == wp and rec["W1_times_W2"] == w12,
                        f"pair {l1},{l2}: W_pair or W1*W2 differs from einsum")
                require(len(meet) > 1 or wp == w12,
                        f"pair {l1},{l2}: W_pair != W1*W2 though v_meet <= 1")
        self._audits[key] = audit


CHECKS = {
    "spectrum": Checker.spectral,
    "mp": Checker.spectral,
    "moments": Checker.moments,
    "paths-audit": Checker.paths_audit,
}


def read_column(path: Path, header: str) -> np.ndarray:
    lines = path.read_text().split()
    require(lines[0] == header, f"{path.name}: header is not {header!r}")
    return np.array([float(x) for x in lines[1:]])


def check_histogram(path: Path, p: int, bins: int) -> None:
    with path.open() as f:
        rows = list(csv.reader(f))
    require(rows[0] == ["bin_left", "bin_right", "density"] and len(rows) == bins + 1,
            f"{path.name}: wrong header or bin count")
    left, right, dens = np.array(rows[1:], dtype=float).T
    width = right - left
    require((width > 0).all() and (left[1:] == right[:-1]).all(),
            f"{path.name}: bins do not tile an interval")
    require(abs(float((dens * width).sum()) - 1.0) <= HIST_TOL,
            f"{path.name}: bars do not integrate to 1")
    counts = dens * width * p
    require(np.abs(counts - np.round(counts)).max() <= 1e-6 and round(counts.sum()) == p,
            f"{path.name}: bars are not counts of the {p} eigenvalues")
