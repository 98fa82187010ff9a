import re

import pytest

from qrggsim import histogram_svg

EDGES = [10.0, 11.0, 12.0, 13.0]
COUNTS = [2, 5, 3]


class TestHistogramSvg:
    def test_deterministic(self):
        assert histogram_svg(EDGES, COUNTS) == histogram_svg(EDGES, COUNTS)

    def test_rect_and_text_elements_only(self):
        svg = histogram_svg(EDGES, COUNTS)
        tags = set(re.findall(r"<(\w+)", svg))
        assert tags == {"svg", "rect", "text"}

    def test_axis_labels_present(self):
        svg = histogram_svg(EDGES, COUNTS)
        assert "min-cut capacity" in svg
        assert "frequency" in svg

    def test_one_bar_per_nonzero_bin(self):
        svg = histogram_svg(EDGES, [2, 0, 3])
        bars = [r for r in re.findall(r'<rect [^>]*fill="#4878a8"', svg)]
        assert len(bars) == 2

    def test_viewbox_and_size(self):
        svg = histogram_svg(EDGES, COUNTS)
        assert 'width="640" height="400"' in svg
        assert 'viewBox="0 0 640 400"' in svg

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            histogram_svg([0.0, 1.0], [1, 2])
        with pytest.raises(ValueError):
            histogram_svg([0.0], [])

    def test_tallest_bar_spans_plot_height(self):
        svg = histogram_svg(EDGES, COUNTS)
        heights = [
            float(h)
            for h in re.findall(r'<rect [^>]*height="([\d.]+)" fill="#4878a8"', svg)
        ]
        assert max(heights) == pytest.approx(400 - 30 - 50)

    def test_golden_minimal_render(self):
        svg = histogram_svg([0.0, 1.0], [1])
        expected = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400" '
            'viewBox="0 0 640 400">\n'
            '<rect x="0" y="0" width="640" height="400" fill="white"/>\n'
            '<rect x="60" y="30" width="560" height="320" fill="#4878a8" '
            'stroke="black" stroke-width="0.5"/>\n'
            '<rect x="60" y="350" width="560" height="1" fill="black"/>\n'
            '<rect x="60" y="30" width="1" height="320" fill="black"/>\n'
            '<text x="60" y="368" text-anchor="middle" font-family="sans-serif" '
            'font-size="11">0</text>\n'
            '<text x="620" y="368" text-anchor="middle" font-family="sans-serif" '
            'font-size="11">1</text>\n'
            '<text x="52" y="354" text-anchor="end" font-family="sans-serif" '
            'font-size="11">0</text>\n'
            '<text x="52" y="34" text-anchor="end" font-family="sans-serif" '
            'font-size="11">1</text>\n'
            '<text x="340" y="390" text-anchor="middle" font-family="sans-serif" '
            'font-size="13">min-cut capacity</text>\n'
            '<text x="16" y="190" text-anchor="middle" font-family="sans-serif" '
            'font-size="13" transform="rotate(-90 16 190)">frequency</text>\n'
            "</svg>\n"
        )
        assert svg == expected
