import hashlib

import numpy as np
import pytest

from codespectra.laws import LawSpec
from codespectra.svg import render_histogram_svg

# sha256 of the SVG text from fixed bin edges and densities
SVG_SHA256 = {
    "sc": "9a54e88bd3120030eaa952e7b52dd5a048f5411204a379a899e577686bef9d40",
    "mp": "7650fab7c105abd9e217daedb7634609f80fd642a2e2809f8054f55651da7e3c",
}


def _fixed_svg(kind):
    if kind == "sc":
        edges = np.linspace(-2.5, 2.5, 21)
        dens = np.arange(20) * (20 - np.arange(20)) / 400.0
        return render_histogram_svg(edges, dens, LawSpec("sc"), "sc <fixed> & pinned")
    edges = np.linspace(0.0, 3.2, 17)
    dens = np.arange(16) * (16 - np.arange(16)) / 96.0
    return render_histogram_svg(edges, dens, LawSpec("mp", 0.5), "mp y=0.5")


@pytest.mark.parametrize("kind", sorted(SVG_SHA256))
def test_histogram_svg_bytes_are_pinned(kind):
    text = _fixed_svg(kind)
    assert text.count("<polyline") == 1
    assert hashlib.sha256(text.encode()).hexdigest() == SVG_SHA256[kind]
