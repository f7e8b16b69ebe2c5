"""End-to-end experiments and artifact emission.

Each subcommand accepts the code selector (--code with --m, --n or --file),
--out, and only the flags it reads:
  spectrum     --p --seed --repeats --bins --lmax
               ESD of the centered Gram matrix vs the semicircle law
  mp           --y --mode --seed --repeats --bins --lmax
               ESD of the raw Gram matrix vs Marchenko-Pastur
  moments      --p --seed --repeats --lmax
               trace-moment statistics of the centered matrix over repeats,
               from matrix products (no eigensolve, no KS)
  code-info    structural code report (dual distance, weights, coherence)
  paths-audit  --lmax
               exact audit of the closed-walk counting identities

Defaults live in ExperimentConfig alone.  Every emitted JSON embeds the
resolved config and sha256 checksums of the artifact files, each hashed from
the bytes written, so identical (config, seed) runs are byte-comparable.
The JSON is compact (one line, sorted keys, no indentation), which lets the
stdlib encode it in C, and still byte-identical for the same (config,
seed); `main` prints the same text it writes to the file.
Only spectrum and mp load hashlib and statistics, for the artifact checksums
and the median KS, and moments loads statistics for its means and variances;
the other commands never map libcrypto, decimal or fractions.
Exit codes: 0 ok, 2 parameter error (an argparse usage error included), 3
resource (budget) error, 4 an internal contract or convergence failure (see
errors.py).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from math import sqrt
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import spectra
from .codes import LinearCode, code_report, load_generator, make_even_weight, \
    make_gold, make_rm1
from .errors import ContractViolationError, ConvergenceError, ParameterError, \
    ResourceError
from .laws import LawSpec
from .paths import paths_audit
from .signal import MODE_DISTINCT, MODE_WITH_REPLACEMENT, sample_codewords
from .spectra import summarize
from .svg import render_histogram_svg

# hashlib, statistics and argparse are imported in the functions that use
# them, so paths-audit and code-info never map libcrypto, decimal or fractions.
if TYPE_CHECKING:
    import argparse

MOMENT_BOUND_MULTIPLIER = 3.0  # converts the unconstanted error scale into a gate
# Highest --lmax of spectrum, mp and moments: far higher powers of H
# overflow to inf, which JSON cannot hold.
MAX_MOMENT_ORDER = 12
# Bytes one repeat of spectrum, mp or moments may allocate, checked before
# sampling.  Estimated from tracemalloc peaks: the int64 words and the rows
# of the sample, 2.25 float64 p x n arrays (3.5 for complex q > 2), 5 float64
# copies of the p x p Gram (of its 2p x 2p real embedding for complex input),
# 400 bytes per histogram bin.  moments never eigensolves, so it holds no
# 2p x 2p embedding, and the same estimate covers it with room to spare.
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
    # Built per call: the constructors are looked up as this module's
    # attributes when the command runs, so wrappers patched onto them apply.
    selectors = {
        "gold": (make_gold, "m"),
        "rm1": (make_rm1, "m"),
        "even": (make_even_weight, "n"),
        "file": (load_generator, "file"),
    }
    if cfg.code not in selectors:
        raise ParameterError(f"unknown code selector: {cfg.code!r}")
    make, flag = selectors[cfg.code]
    for other in ("m", "n", "file"):
        if other != flag and getattr(cfg, other) is not None:
            raise ParameterError(f"--code {cfg.code} does not read --{other}")
    value = getattr(cfg, flag)
    if value is None:
        raise ParameterError(f"--code {cfg.code} needs --{flag}")
    try:
        return make(value)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read --file {value}: {exc}") from None


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


def _to_json(summary: dict) -> str:
    """One line of compact JSON with sorted keys.  Without `indent` the
    stdlib encodes through its C encoder."""
    return json.dumps(summary, sort_keys=True) + "\n"


def _finish(cfg: ExperimentConfig, name: str, fields: dict) -> dict:
    """Add the config (and empty artifacts unless given) and write the JSON."""
    summary = {"config": asdict(cfg), "artifacts": {}, **fields}
    target = _out_dir(cfg) / name
    target.write_text(_to_json(summary))
    return summary


def _check_sampling(cfg: ExperimentConfig, code: LinearCode, p: int, mode: str,
                    bins: int, min_repeats: int = 1) -> None:
    """Refuse a sampling command's inputs before any sample or directory."""
    if p < 1:
        raise ParameterError(f"need p >= 1, got {p}")
    if not 0 <= cfg.seed < 1 << 64:
        raise ParameterError(f"need --seed in [0, 2^64), got {cfg.seed}")
    if mode == MODE_DISTINCT and p > code.N:
        raise ParameterError(f"cannot draw {p} distinct codewords from {code.N}")
    if code.N > 1 << 64:
        raise ParameterError(f"cannot draw from N = {code.N} codewords with "
                             "64-bit message indices")
    if cfg.repeats < min_repeats:
        raise ParameterError(
            f"{cfg.command} needs --repeats >= {min_repeats}, got {cfg.repeats}")
    if not 1 <= cfg.lmax <= MAX_MOMENT_ORDER:
        raise ParameterError(
            f"need --lmax in [1, {MAX_MOMENT_ORDER}], got {cfg.lmax}")
    side = p if code.q == 2 else 2 * p
    need = p * code.n * (18 if code.q == 2 else 28) + 40 * side**2 + 400 * bins
    if need > REPEAT_BYTES_BUDGET:
        raise ResourceError(
            f"one repeat at p={p}, n={code.n}, bins={bins} needs about {need} "
            f"bytes, over the budget of {REPEAT_BYTES_BUDGET}"
        )


def _run_esd_experiment(
    cfg: ExperimentConfig, code: LinearCode, p: int, law: LawSpec,
    mode: str, centered: bool,
) -> dict:
    import hashlib
    import statistics

    if cfg.bins < 1:
        raise ParameterError(f"need --bins >= 1, got {cfg.bins}")
    _check_sampling(cfg, code, p, mode, cfg.bins)
    out_dir = _out_dir(cfg)
    per_repeat = []
    artifacts: dict[str, str] = {}
    for r in range(cfg.repeats):
        sig = sample_codewords(code, p, mode, cfg.seed, stream_index=r)
        summary = summarize(sig, law, centered=centered, ell_max=cfg.lmax)
        eigs = summary.eigenvalues
        edges, dens = _histogram(eigs, cfg.bins, law)
        title = (f"{code.label}  p={p}  law={law.kind}"
                 + (f"(y={law.y:g})" if law.y is not None else ""))
        # the CSVs hold the text np.savetxt(fmt="%.17g") would write
        texts = {
            f"eigs_r{r:02d}.csv": "lambda\n" + "".join(
                "%.17g\n" % x for x in eigs.tolist()),
            f"hist_r{r:02d}.csv": "bin_left,bin_right,density\n" + "".join(
                "%.17g,%.17g,%.17g\n" % row
                for row in zip(edges[:-1].tolist(), edges[1:].tolist(), dens.tolist())),
            f"esd_r{r:02d}.svg": render_histogram_svg(edges, dens, law, title),
        }
        for name, text in texts.items():
            data = text.encode()
            (out_dir / name).write_bytes(data)
            artifacts[name] = hashlib.sha256(data).hexdigest()

        per_repeat.append({
            "stream_index": r,
            "ks": summary.ks_to_law,
            "moments": [[ell, a] for ell, a in summary.moments],
            "eig_min": float(eigs.min()),
            "eig_max": float(eigs.max()),
        })
    ks_values = [r["ks"] for r in per_repeat]
    return {
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
    fields = _run_esd_experiment(
        cfg, code, cfg.p, LawSpec("sc"), MODE_DISTINCT, centered=True
    )
    return _finish(cfg, "summary.json", fields)


def cmd_mp(cfg: ExperimentConfig) -> dict:
    code = resolve_code(cfg)
    if cfg.y is None:
        raise ParameterError("mp needs --y")
    law = LawSpec("mp", cfg.y)
    p = round(cfg.y * code.n)
    if p < 2:
        raise ParameterError(f"round(y*n) = {p} is too small")
    mode = cfg.mode or MODE_WITH_REPLACEMENT
    fields = _run_esd_experiment(cfg, code, p, law, mode, centered=False)
    if mode == MODE_DISTINCT:
        fields["warning"] = (
            "distinct sampling differs from the with-replacement setting "
            "of the Marchenko-Pastur reference"
        )
    return _finish(cfg, "summary.json", fields)


def cmd_moments(cfg: ExperimentConfig) -> dict:
    import statistics

    code = resolve_code(cfg)
    if cfg.p is None:
        raise ParameterError("moments needs --p")
    _check_sampling(cfg, code, cfg.p, MODE_DISTINCT, bins=0, min_repeats=2)

    report = code_report(code)
    c = report.coherence_constant
    n, p, big_n = code.n, cfg.p, code.N
    law = LawSpec("sc")

    # A_l = tr(H^l)/p needs no eigenvalue and no KS distance.  The kernels
    # are looked up on spectra when the command runs, so patched wrappers apply.
    samples: dict[int, list[float]] = {ell: [] for ell in range(1, cfg.lmax + 1)}
    for r in range(cfg.repeats):
        sig = sample_codewords(code, p, MODE_DISTINCT, cfg.seed, stream_index=r)
        h = spectra.center_scale(spectra.gram(sig), n, p)
        for ell, a in spectra.trace_moments(h, cfg.lmax):
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

    return _finish(cfg, "moments.json", {
        "code": {"label": code.label, "n": n, "k": code.k, "N": big_n},
        "code_report": asdict(report),
        "multiplier": MOMENT_BOUND_MULTIPLIER,
        "per_l": per_l,
    })


def cmd_code_info(cfg: ExperimentConfig) -> dict:
    code = resolve_code(cfg)
    report = code_report(code)
    return _finish(cfg, "code_info.json",
                   {"label": code.label, "report": asdict(report)})


def cmd_paths_audit(cfg: ExperimentConfig) -> dict:
    code = resolve_code(cfg)
    return _finish(cfg, "paths_audit.json", {"audit": paths_audit(code, cfg.lmax)})


# argparse keywords of every flag; ExperimentConfig holds the defaults.
_FLAGS = {
    "code": {"choices": ["gold", "rm1", "even", "file"]},
    "m": {"type": int},
    "n": {"type": int},
    "file": {},
    "out": {},
    "p": {"type": int},
    "y": {"type": float},
    "mode": {"choices": [MODE_DISTINCT, MODE_WITH_REPLACEMENT]},
    "seed": {"type": int},
    "repeats": {"type": int},
    "bins": {"type": int},
    "lmax": {"type": int, "help": f"max trace-moment order, 1 to {MAX_MOMENT_ORDER}; "
                                  "walk length for paths-audit"},
}
_EVERY_COMMAND_FLAGS = ("code", "m", "n", "file", "out")
# Each subcommand: its function and the flags it reads besides those above.
_COMMANDS = {
    "spectrum": (cmd_spectrum, ("p", "seed", "repeats", "bins", "lmax")),
    "mp": (cmd_mp, ("y", "mode", "seed", "repeats", "bins", "lmax")),
    "moments": (cmd_moments, ("p", "seed", "repeats", "lmax")),
    "code-info": (cmd_code_info, ()),
    "paths-audit": (cmd_paths_audit, ("lmax",)),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="codespectra",
        description="Spectral experiments on matrices built from linear codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        command = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in _EVERY_COMMAND_FLAGS + flags:
            command.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error argparse printed (2)
        return exc.code
    cfg = ExperimentConfig(**vars(args))
    run, _ = _COMMANDS[cfg.command]
    try:
        result = run(cfg)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (ContractViolationError, ConvergenceError) as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(_to_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
