"""Self-contained SVG rendering."""

import numpy as np
import pytest

from dfsearch.svgplot import svg_plot


def _series(kind="line"):
    x = np.linspace(0.0, 1.0, 5)
    return [{"label": "demo", "x": x, "y": x**2, "kind": kind}]


class TestSvgPlot:
    def test_produces_standalone_svg(self):
        text = svg_plot(_series(), title="t", xlabel="x", ylabel="y")
        assert text.lstrip().startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "polyline" in text
        assert ">demo<" in text

    def test_points_mode_draws_circles(self):
        text = svg_plot(_series(kind="points"))
        assert "<circle" in text

    def test_diagonal_reference_line(self):
        text = svg_plot(_series(kind="points"), diagonal=True)
        assert "stroke-dasharray" in text

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            svg_plot([])

    def test_nonfinite_values_rejected(self):
        bad = [{"label": "b", "x": [0.0, 1.0], "y": [0.0, np.nan]}]
        with pytest.raises(ValueError):
            svg_plot(bad)

    @pytest.mark.parametrize("kind", ["line", "points"])
    def test_unequal_lengths_rejected(self, kind):
        bad = [{"label": "u", "x": [0.0, 1.0, 2.0], "y": [0.0, 1.0], "kind": kind}]
        with pytest.raises(ValueError, match="as many"):
            svg_plot(bad)

    def test_degenerate_range_still_renders(self):
        flat = [{"label": "f", "x": [0.0, 1.0], "y": [2.0, 2.0]}]
        text = svg_plot(flat)
        assert "<svg" in text
