"""Matrices from linear codes and their spectral statistics."""

from .codes import (
    CodeReport,
    LinearCode,
    char_map,
    code_report,
    codewords,
    encode,
    load_generator,
    make_even_weight,
    make_gold,
    make_rm1,
    parse_generator,
)
from .errors import (
    ContractViolationError,
    ConvergenceError,
    ParameterError,
    ResourceError,
)
from .laws import LawSpec, mp_cdf, mp_moment, mp_pdf, sc_cdf, sc_moment, sc_pdf
from .paths import (
    ClosedPath,
    PathPair,
    count_double_tree_classes,
    count_W,
    count_W_pair,
    enumerate_closed_classes,
    enumerate_pair_classes,
    expect_omega,
    is_double_tree,
    paths_audit,
)
from .rng import XorShift64Star
from .signal import SignalMatrix, sample_codewords
from .spectra import (
    SpectralSummary,
    center_scale,
    eig_hermitian,
    gram,
    ks_statistic,
    summarize,
    trace_moments,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
