"""End-to-end experiments and artifact emission.

Subcommands:
  spectrum     ESD of the centered Gram matrix vs the semicircle law
  mp           ESD of the raw Gram matrix vs Marchenko-Pastur
  moments      trace-moment statistics of the centered matrix over repeats
  code-info    structural code report (dual distance, weights, coherence)
  paths-audit  exact audit of the closed-walk counting identities

Every emitted JSON embeds the resolved config and sha256 checksums of the
artifact files, so identical (config, seed) runs are byte-comparable.
Exit codes: 0 ok, 2 parameter error, 3 resource (budget) error, 4 an
internal contract or convergence failure (see errors.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from dataclasses import asdict, dataclass
from math import sqrt
from pathlib import Path

import numpy as np

from .codes import LinearCode, code_report, load_generator, make_even_weight, \
    make_gold, make_rm1
from .errors import ContractViolationError, ConvergenceError, ParameterError, \
    ResourceError
from .laws import LawSpec
from .paths import paths_audit
from .signal import MODE_DISTINCT, MODE_WITH_REPLACEMENT, sample_codewords
from .spectra import summarize
from .svg import render_histogram_svg

MOMENT_BOUND_MULTIPLIER = 3.0  # converts the unconstanted error scale into a gate
# Bytes one repeat of spectrum, mp or moments may allocate, checked before
# sampling.  Estimated from tracemalloc peaks: 4 float64 p x n arrays for the
# sample (6 for complex q > 2), 5 float64 copies of the p x p Gram (of its
# 2p x 2p real embedding for complex input), 400 bytes per histogram bin.
REPEAT_BYTES_BUDGET = 1 << 30


@dataclass
class ExperimentConfig:
    command: str
    code: str = "gold"
    m: int | None = None
    n: int | None = None
    file: str | None = None
    p: int | None = None
    y: float | None = None
    mode: str | None = None
    seed: int = 1
    repeats: int = 10
    bins: int = 40
    lmax: int = 6
    out: str = "out"


def resolve_code(cfg: ExperimentConfig) -> LinearCode:
    if cfg.code == "gold":
        if cfg.m is None:
            raise ParameterError("gold code needs --m")
        return make_gold(cfg.m)
    if cfg.code == "rm1":
        if cfg.m is None:
            raise ParameterError("rm1 code needs --m")
        return make_rm1(cfg.m)
    if cfg.code == "even":
        if cfg.n is None:
            raise ParameterError("even-weight code needs --n")
        return make_even_weight(cfg.n)
    if cfg.code == "file":
        if cfg.file is None:
            raise ParameterError("file code needs --file")
        try:
            return load_generator(cfg.file)
        except (OSError, UnicodeDecodeError) as exc:
            raise ParameterError(f"cannot read --file {cfg.file}: {exc}") from None
    raise ParameterError(f"unknown code selector: {cfg.code!r}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_eigs_csv(path: Path, eigs) -> None:
    lines = ["lambda"] + [f"{x:.17g}" for x in eigs]
    path.write_text("\n".join(lines) + "\n")


def _write_hist_csv(path: Path, edges, densities) -> None:
    lines = ["bin_left,bin_right,density"]
    for left, right, dens in zip(edges[:-1], edges[1:], densities):
        lines.append(f"{left:.17g},{right:.17g},{dens:.17g}")
    path.write_text("\n".join(lines) + "\n")


def _histogram(eigs: np.ndarray, bins: int, law: LawSpec):
    lo_s, hi_s = law.support
    lo = min(float(np.min(eigs)), lo_s)
    hi = max(float(np.max(eigs)), hi_s)
    densities, edges = np.histogram(eigs, bins=bins, range=(lo, hi), density=True)
    return edges, densities


def _out_dir(cfg: ExperimentConfig) -> Path:
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create --out {cfg.out}: {exc}") from None
    return out_dir


def _finish(summary: dict, out_dir: Path, name: str) -> dict:
    target = out_dir / name
    target.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _check_repeat_bytes(code: LinearCode, p: int, bins: int) -> None:
    side = p if code.q == 2 else 2 * p
    need = p * code.n * (32 if code.q == 2 else 48) + 40 * side**2 + 400 * bins
    if need > REPEAT_BYTES_BUDGET:
        raise ResourceError(
            f"one repeat at p={p}, n={code.n}, bins={bins} needs about {need} "
            f"bytes, over the budget of {REPEAT_BYTES_BUDGET}"
        )


def _run_esd_experiment(
    cfg: ExperimentConfig, code: LinearCode, p: int, law: LawSpec,
    mode: str, centered: bool,
) -> dict:
    if cfg.repeats < 1:
        raise ParameterError(f"need --repeats >= 1, got {cfg.repeats}")
    if cfg.bins < 1:
        raise ParameterError(f"need --bins >= 1, got {cfg.bins}")
    _check_repeat_bytes(code, p, cfg.bins)
    out_dir = _out_dir(cfg)
    per_repeat = []
    artifacts: dict[str, str] = {}
    for r in range(cfg.repeats):
        sig = sample_codewords(code, p, mode, cfg.seed, stream_index=r)
        summary = summarize(sig, law, centered=centered, ell_max=cfg.lmax)
        eigs = np.array(summary.eigenvalues)

        eig_path = out_dir / f"eigs_r{r:02d}.csv"
        _write_eigs_csv(eig_path, eigs)
        edges, dens = _histogram(eigs, cfg.bins, law)
        hist_path = out_dir / f"hist_r{r:02d}.csv"
        _write_hist_csv(hist_path, edges, dens)
        svg_path = out_dir / f"esd_r{r:02d}.svg"
        title = (f"{code.label}  p={p}  law={law.kind}"
                 + (f"(y={law.y:g})" if law.y is not None else ""))
        render_histogram_svg(svg_path, edges, dens, law, title)
        for f in (eig_path, hist_path, svg_path):
            artifacts[f.name] = _sha256(f)

        per_repeat.append({
            "stream_index": r,
            "ks": summary.ks_to_law,
            "moments": [[ell, a] for ell, a in summary.moments],
            "eig_min": float(eigs.min()),
            "eig_max": float(eigs.max()),
        })
    ks_values = [r["ks"] for r in per_repeat]
    return {
        "config": asdict(cfg),
        "code": {"label": code.label, "n": code.n, "k": code.k, "N": code.N},
        "p": p,
        "law": {"kind": law.kind, "y": law.y},
        "mode": mode,
        "per_repeat": per_repeat,
        "ks_values": ks_values,
        "median_ks": statistics.median(ks_values),
        "artifacts": artifacts,
    }


def cmd_spectrum(cfg: ExperimentConfig) -> dict:
    code = resolve_code(cfg)
    if cfg.p is None:
        raise ParameterError("spectrum needs --p")
    mode = cfg.mode or MODE_DISTINCT
    if mode != MODE_DISTINCT:
        raise ParameterError("the semicircle experiment requires distinct sampling")
    summary = _run_esd_experiment(
        cfg, code, cfg.p, LawSpec("sc"), mode, centered=True
    )
    return _finish(summary, Path(cfg.out), "summary.json")


def cmd_mp(cfg: ExperimentConfig) -> dict:
    code = resolve_code(cfg)
    if cfg.y is None:
        raise ParameterError("mp needs --y")
    law = LawSpec("mp", cfg.y)
    p = round(cfg.y * code.n)
    if p < 2:
        raise ParameterError(f"round(y*n) = {p} is too small")
    mode = cfg.mode or MODE_WITH_REPLACEMENT
    summary = _run_esd_experiment(cfg, code, p, law, mode, centered=False)
    if mode == MODE_DISTINCT:
        summary["warning"] = (
            "distinct sampling differs from the with-replacement setting "
            "of the Marchenko-Pastur reference"
        )
    return _finish(summary, Path(cfg.out), "summary.json")


def cmd_moments(cfg: ExperimentConfig) -> dict:
    code = resolve_code(cfg)
    if cfg.p is None:
        raise ParameterError("moments needs --p")
    if cfg.lmax > 12:
        raise ParameterError("moments supports --lmax up to 12")
    if cfg.repeats < 2:
        raise ParameterError("moments needs at least 2 repeats")
    mode = cfg.mode or MODE_DISTINCT
    if mode != MODE_DISTINCT:
        raise ParameterError("moment statistics use distinct sampling")
    _check_repeat_bytes(code, cfg.p, bins=0)

    report = code_report(code)
    c = report.coherence_constant
    n, p, big_n = code.n, cfg.p, code.N
    law = LawSpec("sc")

    samples: dict[int, list[float]] = {ell: [] for ell in range(1, cfg.lmax + 1)}
    for r in range(cfg.repeats):
        sig = sample_codewords(code, p, mode, cfg.seed, stream_index=r)
        summary = summarize(sig, law, centered=True, ell_max=cfg.lmax)
        for ell, a in summary.moments:
            samples[ell].append(a)

    per_l = []
    for ell in range(1, cfg.lmax + 1):
        vals = samples[ell]
        mean = statistics.fmean(vals)
        var = statistics.variance(vals)
        if ell % 2 == 0:
            scale = c**ell / p + n / big_n + p / n
        else:
            scale = c**ell / sqrt(p) + sqrt(p / n)
        reference = law.moment(ell)
        bound = MOMENT_BOUND_MULTIPLIER * scale
        per_l.append({
            "l": ell,
            "mean": mean,
            "variance": var,
            "sc_moment": reference,
            "error_scale": scale,
            "bound": bound,
            "deviation": abs(mean - reference),
            "within_bound": abs(mean - reference) <= bound,
        })

    out_dir = _out_dir(cfg)
    summary = {
        "config": asdict(cfg),
        "code": {"label": code.label, "n": n, "k": code.k, "N": big_n},
        "code_report": asdict(report),
        "multiplier": MOMENT_BOUND_MULTIPLIER,
        "per_l": per_l,
        "artifacts": {},
    }
    return _finish(summary, out_dir, "moments.json")


def cmd_code_info(cfg: ExperimentConfig) -> dict:
    code = resolve_code(cfg)
    report = code_report(code)
    out_dir = _out_dir(cfg)
    summary = {
        "config": asdict(cfg),
        "label": code.label,
        "report": asdict(report),
        "artifacts": {},
    }
    return _finish(summary, out_dir, "code_info.json")


def cmd_paths_audit(cfg: ExperimentConfig) -> dict:
    code = resolve_code(cfg)
    audit = paths_audit(code, cfg.lmax)
    out_dir = _out_dir(cfg)
    summary = {
        "config": asdict(cfg),
        "audit": audit,
        "artifacts": {},
    }
    return _finish(summary, out_dir, "paths_audit.json")


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "mp": cmd_mp,
    "moments": cmd_moments,
    "code-info": cmd_code_info,
    "paths-audit": cmd_paths_audit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codespectra",
        description="Spectral experiments on matrices built from linear codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--code", default="gold",
                       choices=["gold", "rm1", "even", "file"])
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--file", default=None)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--y", type=float, default=None)
        p.add_argument("--mode", default=None,
                       choices=[MODE_DISTINCT, MODE_WITH_REPLACEMENT])
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--repeats", type=int, default=10)
        p.add_argument("--bins", type=int, default=40)
        p.add_argument("--lmax", type=int, default=6,
                       help="max trace-moment order; walk length for paths-audit")
        p.add_argument("--out", default="out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = ExperimentConfig(**vars(args))
    try:
        result = _COMMANDS[cfg.command](cfg)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (ContractViolationError, ConvergenceError) as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 4
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
