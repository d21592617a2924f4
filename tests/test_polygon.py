"""2D realizations: boundary polygons, distances, Wills integral, Steiner polynomial."""

import math

import numpy as np
import pytest

from zonomed import (
    ConvexPolygon2D,
    FlatZonotopeError,
    Zonotope,
    distances_to_polygon,
    intrinsic_volume,
    steiner_polynomial_check_2d,
    wills_functional,
    wills_mc_check,
    zonotope_polygon_2d,
)
from zonomed import polygon
from zonomed.polygon import clip_polygon_to_rect, polygon_area
from conftest import random_zonotope


def canonical(verts: np.ndarray) -> np.ndarray:
    """Rotate the cyclic vertex order to start at the lexicographic minimum."""
    verts = np.asarray(verts)
    start = np.lexsort((verts[:, 1], verts[:, 0]))[0]
    return np.roll(verts, -start, axis=0)


class TestConvexPolygon:
    def test_validation_rejects_cw(self):
        with pytest.raises(ValueError):
            ConvexPolygon2D([[0, 0], [0, 1], [1, 0]])

    def test_validation_rejects_collinear(self):
        with pytest.raises(ValueError):
            ConvexPolygon2D([[0, 0], [1, 0], [2, 0], [1, 1]])

    def test_area_perimeter(self):
        square = ConvexPolygon2D([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert square.area == pytest.approx(1.0)
        assert square.perimeter == pytest.approx(4.0)
        assert square.diameter == pytest.approx(math.sqrt(2.0))


class TestZonotopePolygon:
    def test_unit_square(self):
        poly = zonotope_polygon_2d(Zonotope([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(
            canonical(poly.vertices), [[0, 0], [1, 0], [1, 1], [0, 1]], atol=1e-15
        )

    def test_sheared_parallelogram(self):
        poly = zonotope_polygon_2d(Zonotope([[1.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(
            canonical(poly.vertices), [[0, 0], [1, 0], [2, 1], [1, 1]], atol=1e-15
        )

    def test_flat_zonotope(self):
        with pytest.raises(FlatZonotopeError):
            zonotope_polygon_2d(Zonotope([[1.0, 0.0], [2.0, 0.0]]))

    def test_center_shift(self):
        poly = zonotope_polygon_2d(Zonotope([[1.0, 0.0], [0.0, 1.0]], center=[5.0, -1.0]))
        np.testing.assert_allclose(
            canonical(poly.vertices), [[5, -1], [6, -1], [6, 0], [5, 0]], atol=1e-15
        )

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            zonotope_polygon_2d(Zonotope([[1.0, 0.0, 0.0]]))

    def test_small_generators_keep_every_vertex(self):
        # the collinearity test is relative to the polygon's extent; with an
        # absolute floor every vertex of a 1e-6 polygon was dropped
        gens = np.random.default_rng(0).standard_normal((6, 2))
        small = zonotope_polygon_2d(Zonotope(np.ldexp(gens, -20)))
        assert len(small.vertices) == len(zonotope_polygon_2d(Zonotope(gens)).vertices) == 12

    @pytest.mark.parametrize("scale", [1e-170, 1e-200, 1e-300])
    def test_tiny_generators_are_not_parallel(self, scale):
        # their cross products underflow; the merge test must not read 0 there
        gens = np.random.default_rng(0).standard_normal((6, 2))
        unit = zonotope_polygon_2d(Zonotope(gens)).vertices
        tiny = zonotope_polygon_2d(Zonotope(scale * gens)).vertices
        assert len(tiny) == 12
        np.testing.assert_allclose(tiny / scale, unit, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_area_perimeter_match_intrinsic(self, seed):
        rng = np.random.default_rng(seed)
        z = random_zonotope(rng, 2, int(rng.integers(2, 9)))
        poly = zonotope_polygon_2d(z)
        assert poly.area == pytest.approx(intrinsic_volume(z, 2), rel=1e-10)
        assert poly.perimeter == pytest.approx(2.0 * intrinsic_volume(z, 1), rel=1e-10)

    def test_parallel_generators_merged(self):
        z = Zonotope([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        poly = zonotope_polygon_2d(z)
        assert len(poly.vertices) == 4  # rectangle [0,3] x [0,1]
        assert poly.area == pytest.approx(intrinsic_volume(z, 2), rel=1e-12)
        assert poly.perimeter == pytest.approx(2.0 * intrinsic_volume(z, 1), rel=1e-12)

    def test_negative_generators_same_shape(self):
        a = zonotope_polygon_2d(Zonotope([[1.0, 0.2], [0.3, 1.0]]))
        b = zonotope_polygon_2d(Zonotope([[-1.0, -0.2], [0.3, 1.0]]))
        assert a.area == pytest.approx(b.area, rel=1e-12)
        assert a.perimeter == pytest.approx(b.perimeter, rel=1e-12)


class TestDistance:
    square = ConvexPolygon2D([[0, 0], [1, 0], [1, 1], [0, 1]])

    def test_inside_zero(self):
        assert distances_to_polygon([[0.4, 0.6]], self.square)[0] == 0.0

    def test_axis_outside(self):
        assert distances_to_polygon([[2.0, 0.0]], self.square)[0] == pytest.approx(1.0)

    def test_corner_outside(self):
        assert distances_to_polygon([[2.0, 2.0]], self.square)[0] == pytest.approx(math.sqrt(2.0))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-2, 3, size=(50, 2))
        batch = distances_to_polygon(pts, self.square)
        singles = [distances_to_polygon(p, self.square)[0] for p in pts]
        np.testing.assert_allclose(batch, singles, atol=1e-14)

    def test_distances_do_not_depend_on_block(self, monkeypatch):
        rng = np.random.default_rng(6)
        poly = zonotope_polygon_2d(random_zonotope(rng, 2, 5))
        pts = rng.uniform(-4.0, 4.0, size=(3000, 2))

        def distances(elements):
            monkeypatch.setattr(polygon, "_DISTANCE_ELEMENTS", elements)
            return distances_to_polygon(pts, poly).tobytes()

        default = distances(polygon._DISTANCE_ELEMENTS)
        assert distances(1) == default
        assert distances(2 * len(poly.vertices) * len(pts)) == default

    @pytest.mark.parametrize("k", [-1000, -531, -60, 60, 500, 1000])
    def test_distances_scale_by_powers_of_two(self, k):
        # computed on the polygon divided by its own power of two, so squared
        # edge lengths of 2^-531 (about 1e-160) or 2^1000 do not leave float64
        rng = np.random.default_rng(7)
        poly = zonotope_polygon_2d(random_zonotope(rng, 2, 5))
        pts = rng.uniform(-4.0, 4.0, size=(500, 2))
        scaled = ConvexPolygon2D(np.ldexp(poly.vertices, k))
        expected = np.ldexp(distances_to_polygon(pts, poly), k)
        assert np.any(expected > 0.0)
        np.testing.assert_array_equal(distances_to_polygon(np.ldexp(pts, k), scaled), expected)


class TestWillsIntegral:
    def test_unit_square(self):
        z = Zonotope([[1.0, 0.0], [0.0, 1.0]])
        est = wills_mc_check(z, 200_000, seed=3)
        assert abs(est.estimate - 4.0) <= 3.0 * est.std_error

    def test_sheared_pair(self):
        z = Zonotope([[1.0, 0.0], [1.0, 1.0]])
        est = wills_mc_check(z, 200_000, seed=5)
        assert abs(est.estimate - (3.0 + math.sqrt(2.0))) <= 3.0 * est.std_error

    def test_tiny_zonotope_tends_to_one(self):
        z = Zonotope(1e-3 * np.array([[1.0, 0.0], [0.0, 1.0]]))
        est = wills_mc_check(z, 200_000, seed=7)
        expected = wills_functional(z)
        assert expected == pytest.approx(1.0, abs=3e-3)
        assert abs(est.estimate - expected) <= 4.0 * est.std_error

    def test_flat_propagates(self):
        with pytest.raises(FlatZonotopeError):
            wills_mc_check(Zonotope([[1.0, 0.0], [3.0, 0.0]]), 100, seed=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_consistency(self, seed):
        rng = np.random.default_rng(100 + seed)
        z = random_zonotope(rng, 2, int(rng.integers(2, 7)))
        est = wills_mc_check(z, 150_000, seed=seed)
        assert abs(est.estimate - wills_functional(z)) <= 4.0 * est.std_error


class TestSteinerPolynomial:
    def test_unit_square_lambda_one(self):
        z = Zonotope([[1.0, 0.0], [0.0, 1.0]])
        lhs, rhs = steiner_polynomial_check_2d(z, 1.0)
        assert lhs == pytest.approx(1.0 + 4.0 + math.pi, rel=1e-12)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_lambda_zero_is_area(self):
        rng = np.random.default_rng(9)
        z = random_zonotope(rng, 2, 5)
        lhs, rhs = steiner_polynomial_check_2d(z, 0.0)
        assert lhs == pytest.approx(intrinsic_volume(z, 2), rel=1e-12)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_sheared_pair_half(self):
        z = Zonotope([[1.0, 0.0], [1.0, 1.0]])
        lhs, rhs = steiner_polynomial_check_2d(z, 0.5)
        expected = 1.0 + (1.0 + math.sqrt(2.0)) + math.pi / 4.0
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            steiner_polynomial_check_2d(Zonotope([[1.0, 0.0], [0.0, 1.0]]), -0.1)
        with pytest.raises(ValueError):
            steiner_polynomial_check_2d(Zonotope([[1.0, 0.0], [0.0, 1.0]]), float("nan"))


class TestClipHelpers:
    def test_clip_full_cover(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        clipped = clip_polygon_to_rect(square, -1, 2, -1, 2)
        assert polygon_area(clipped) == pytest.approx(1.0)

    def test_clip_partial(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        clipped = clip_polygon_to_rect(square, 0.5, 2, -1, 2)
        assert polygon_area(clipped) == pytest.approx(0.5)

    def test_clip_disjoint(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        clipped = clip_polygon_to_rect(square, 2, 3, 2, 3)
        assert polygon_area(clipped) == 0.0
