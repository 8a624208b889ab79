import re

import pytest

from coherence_forge.cli import EXIT_OK, main
from coherence_forge.svgplot import line_plot


def _y_labels(svg: str) -> list[str]:
    return re.findall(r'text-anchor="end">([^<]*)<', svg)


def _x_labels(svg: str) -> list[str]:
    return re.findall(r'text-anchor="middle">([^<]*)</text>', svg)[:5]


def _drawn_ys(svg: str) -> set[str]:
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
    return {point.split(",")[1] for point in points.split()}


def _plot(ys):
    return line_plot([("s", [0.1 * i for i in range(len(ys))], ys)], "x", "y")


@pytest.mark.parametrize("value", [0.0, 1.0, -2.5, 1e6, 3e-20])
def test_a_constant_series_is_flat_with_distinct_labels(value):
    svg = _plot([value] * 6)
    assert len(_drawn_ys(svg)) == 1
    labels = _y_labels(svg)
    assert len(labels) == 5 and len(set(labels)) == 5


def test_a_constant_series_keeps_its_frame():
    # a range of exactly 0 is padded by 1 on each side, as it always was
    assert _y_labels(_plot([1.0] * 6)) == ["0", "0.5", "1", "1.5", "2"]


@pytest.mark.parametrize("value", [1.0, -7.25, 2e5])
def test_round_off_is_drawn_flat(value):
    # a span of 1e-12 relative, far below the 1e-9 floor, is drawn as the
    # constant it rounds from
    ys = [value * (1.0 + 1e-12 * (i % 3 - 1)) for i in range(9)]
    svg = _plot(ys)
    assert len(_drawn_ys(svg)) == 1
    assert _y_labels(svg) == _y_labels(_plot([value] * 9))


def test_a_span_above_the_floor_gets_the_digits_it_needs():
    # a span of 1e-6 relative is data: it fills the frame, and 3 significant
    # digits would print "1" five times
    svg = _plot([1.0, 1.0 + 1e-6, 1.0 + 5e-7])
    assert len(_drawn_ys(svg)) == 3
    labels = _y_labels(svg)
    assert len(set(labels)) == 5
    assert all(a != b for a, b in zip(labels, labels[1:]))
    assert max(len(label) for label in labels) <= 12


def test_ordinary_labels_keep_3_digits():
    svg = _plot([0.2, 0.5, 0.35, 0.9])
    assert _y_labels(svg) == ["0.165", "0.358", "0.55", "0.743", "0.935"]
    assert _x_labels(svg) == ["0", "0.075", "0.15", "0.225", "0.3"]


def test_frontier_of_a_constant_energy_is_flat(tmp_path, capsys):
    """At p = 0.45 on the spectrum 1,0,2,1 the factorized filters keep a
    mean energy of exactly 1, up to round-off in the last bit."""
    svg_path = tmp_path / "f.svg"
    code = main([
        "frontier", "--p", "0.45", "--target", "energy", "--family", "factorized",
        "--spectrum", "1,0,2,1", "--out-csv", str(tmp_path / "f.csv"),
        "--out-svg", str(svg_path),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    svg = svg_path.read_text()
    assert len(_drawn_ys(svg)) == 1
    assert _y_labels(svg) == ["0", "0.5", "1", "1.5", "2"]


_FRAME_TOP, _FRAME_BOTTOM = 36.0, 372.0


def _in_frame(svg: str) -> bool:
    return all(_FRAME_TOP <= float(y) <= _FRAME_BOTTOM for y in _drawn_ys(svg))


@pytest.mark.parametrize("value", [1234567890123.0, -9.87e15])
def test_round_off_at_a_large_magnitude_stays_in_the_frame(value):
    # a span of up to 1e-9 of the magnitude, far above the 1.0 pad of a
    # constant series, is drawn flat about its midpoint and inside the frame
    ys = [value + abs(value) * 1e-9 * t for t in (0.0, 0.5, 1.0, 0.25)]
    svg = _plot(ys)
    assert _in_frame(svg)
    labels = _y_labels(svg)
    assert len(set(labels)) == 5
    middle = 0.5 * (min(ys) + max(ys))
    assert abs(float(labels[2]) - middle) <= 1e-10 * abs(value)


def test_frontier_at_a_large_energy_scale_labels_the_data(tmp_path, capsys):
    csv_path, svg_path = tmp_path / "f.csv", tmp_path / "f.svg"
    code = main([
        "frontier", "--p", "0.2", "--target", "energy", "--family", "factorized",
        "--spectrum", "1234567890123,0,2469135780246,1234567890123",
        "--out-csv", str(csv_path), "--out-svg", str(svg_path),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    svg = svg_path.read_text()
    assert _in_frame(svg)
    energies = [float(line.split(",")[2]) for line in csv_path.read_text().splitlines()[1:]]
    middle = 0.5 * (min(energies) + max(energies))
    assert abs(float(_y_labels(svg)[2]) - middle) <= 1e-10 * middle
