"""Exact and Monte Carlo intrinsic volumes of zonotopes."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonomed import (
    PointCloud,
    Zonotope,
    intrinsic_volume,
    mc_intrinsic_volume,
    unit_ball_volume,
    wills_functional,
)
import zonomed
from zonomed import medians, zonotope
from zonomed.zonotope import MonteCarloEstimate, intrinsic_volume_of_generators
from conftest import random_zonotope, rotation_matrix, subset_volume_sum


class TestTypes:
    def test_point_cloud_validation(self):
        c = PointCloud([[1.0, 2.0], [3.0, 4.0]])
        assert c.n == 2 and c.dim == 2

    def test_point_cloud_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(np.empty((0, 2)))

    def test_point_cloud_rejects_nan(self):
        with pytest.raises(ValueError):
            PointCloud([[np.nan, 0.0]])

    def test_zonotope_center_default(self):
        z = Zonotope([[1.0, 0.0]])
        np.testing.assert_array_equal(z.center, [0.0, 0.0])

    def test_zonotope_center_mismatch(self):
        with pytest.raises(ValueError):
            Zonotope([[1.0, 0.0]], center=[0.0, 0.0, 0.0])

    def test_empty_generators_need_center(self):
        z = Zonotope(np.empty((0, 2)), center=[0.0, 0.0])
        assert z.num_generators == 0
        with pytest.raises(ValueError):
            Zonotope(np.array([]))

    def test_ball_constants(self):
        assert unit_ball_volume(0) == 1.0
        assert unit_ball_volume(1) == 2.0
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
        with pytest.raises(ValueError):
            unit_ball_volume(-1)


class TestIntrinsicVolume:
    def test_box_2x3(self):
        z = Zonotope([[2.0, 0.0], [0.0, 3.0]])
        assert intrinsic_volume(z, 1) == pytest.approx(5.0, rel=1e-12)
        assert intrinsic_volume(z, 2) == pytest.approx(6.0, rel=1e-12)

    def test_single_segment(self):
        z = Zonotope([[3.0, 4.0]])
        assert intrinsic_volume(z, 1) == pytest.approx(5.0, rel=1e-12)
        assert intrinsic_volume(z, 2) == 0.0

    def test_sheared_pair(self):
        # hand oracle: norms 1 and sqrt(2); |det [[1,0],[1,1]]| = 1
        z = Zonotope([[1.0, 0.0], [1.0, 1.0]])
        assert intrinsic_volume(z, 2) == pytest.approx(1.0, rel=1e-12)
        assert intrinsic_volume(z, 1) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)

    def test_v0_is_one_and_overflow_is_zero(self):
        rng = np.random.default_rng(0)
        z = random_zonotope(rng, 3, 5)
        assert intrinsic_volume(z, 0) == 1.0
        assert intrinsic_volume(z, 4) == 0.0

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            intrinsic_volume(Zonotope([[1.0, 0.0]]), -1)

    def test_fewer_generators_than_j(self):
        z = Zonotope([[1.0, 0.0, 0.0]])
        assert intrinsic_volume(z, 2) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        gens = rng.standard_normal((5, 3))
        for j in range(4):
            a = intrinsic_volume(Zonotope(gens), j)
            b = intrinsic_volume(Zonotope(gens, center=[10.0, -4.0, 2.5]), j)
            assert a == b

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_homogeneity(self, j):
        rng = np.random.default_rng(2)
        gens = rng.standard_normal((6, 3))
        s = 1.7
        base = intrinsic_volume(Zonotope(gens), j)
        scaled = intrinsic_volume(Zonotope(s * gens), j)
        assert scaled == pytest.approx(s**j * base, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_box_identity(self, d):
        rng = np.random.default_rng(d)
        edges = rng.uniform(0.5, 3.0, size=d)
        gens = np.diag(edges)
        import itertools

        for j in range(1, d + 1):
            expected = math.fsum(
                math.prod(c) for c in itertools.combinations(edges, j)
            )
            assert intrinsic_volume(Zonotope(gens), j) == pytest.approx(
                expected, rel=1e-12
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        gens = rng.standard_normal((7, 4))
        perm = rng.permutation(7)
        for j in range(5):
            a = intrinsic_volume(Zonotope(gens), j)
            b = intrinsic_volume(Zonotope(gens[perm]), j)
            assert b == pytest.approx(a, rel=1e-12)
            if j <= 2:
                assert a == b  # summation is exact, order cannot matter

    def test_repeated_generators_multiset(self):
        # tied generators are counted per index subset
        g = np.array([[1.0, 0.0]])
        z = Zonotope(np.vstack([g, g]))
        assert intrinsic_volume(z, 1) == pytest.approx(2.0, rel=1e-15)


class TestMonteCarlo:
    def test_segment_estimate(self):
        z = Zonotope([[3.0, 4.0, 0.0]])
        est = mc_intrinsic_volume(z, 1, 40000, seed=7)
        assert abs(est.estimate - 5.0) <= 4.0 * est.std_error
        assert est.std_error > 0.0

    def test_box_area(self):
        z = Zonotope([[2.0, 0.0], [0.0, 3.0]])
        est = mc_intrinsic_volume(z, 2, 100_000, seed=11)
        assert abs(est.estimate - 6.0) <= 3.0 * est.std_error

    def test_sheared_pair_v1(self):
        z = Zonotope([[1.0, 0.0], [1.0, 1.0]])
        est = mc_intrinsic_volume(z, 1, 100_000, seed=13)
        assert abs(est.estimate - (1.0 + math.sqrt(2.0))) <= 3.0 * est.std_error

    def test_reproducible(self):
        z = Zonotope([[1.0, 0.0], [0.5, 1.5]])
        a = mc_intrinsic_volume(z, 2, 5000, seed=5)
        b = mc_intrinsic_volume(z, 2, 5000, seed=5)
        assert a.estimate == b.estimate and a.std_error == b.std_error

    def test_randomized_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(d, 9))
            z = random_zonotope(rng, d, m)
            for j in range(1, d + 1):
                exact = intrinsic_volume(z, j)
                est = mc_intrinsic_volume(z, j, 30_000, seed=int(rng.integers(1 << 30)))
                assert abs(est.estimate - exact) <= 4.0 * est.std_error

    def test_invalid_arguments(self):
        z = Zonotope([[1.0, 0.0]])
        with pytest.raises(ValueError):
            mc_intrinsic_volume(z, 0, 100, seed=0)
        with pytest.raises(ValueError):
            mc_intrinsic_volume(z, 3, 100, seed=0)
        with pytest.raises(ValueError):
            mc_intrinsic_volume(z, 1, 0, seed=0)

    def test_estimate_from_samples(self):
        est = MonteCarloEstimate.from_samples(np.array([1.0, 2.0, 4.0, 5.0]), 3.0)
        assert est.estimate == 3.0 * 3.0
        assert est.std_error == 3.0 * float(np.std([1.0, 2.0, 4.0, 5.0], ddof=1) / 2.0)
        assert est.samples == 4
        one = MonteCarloEstimate.from_samples(np.array([7.0]))
        assert (one.estimate, one.std_error, one.samples) == (7.0, 0.0, 1)


class TestWills:
    def test_unit_square(self):
        z = Zonotope([[1.0, 0.0], [0.0, 1.0]])
        assert wills_functional(z) == pytest.approx(4.0, rel=1e-12)

    def test_point(self):
        z = Zonotope(np.empty((0, 2)), center=[1.0, 2.0])
        assert wills_functional(z) == 1.0

    def test_sheared_pair(self):
        z = Zonotope([[1.0, 0.0], [1.0, 1.0]])
        assert wills_functional(z) == pytest.approx(3.0 + math.sqrt(2.0), rel=1e-12)


def _hadamard_bound(gens, j):
    """Sum over j-subsets of the product of the generator norms, >= V_j.

    Rounding the generators moves V_j by a few ulps of this, so it sets the
    scale of every tolerance below.
    """
    norms = np.linalg.norm(gens, axis=1).tolist()
    return math.fsum(math.prod(c) for c in itertools.combinations(norms, j))


class TestAccuracy:
    """Subset volumes stay accurate on near-degenerate generators."""

    def test_near_flat_zonotope(self):
        # third coordinate 1e-7: sqrt(det Gram) was 8.5e-3 off for V_3
        gens = np.random.default_rng(0).standard_normal((40, 3)) * [1.0, 1.0, 1e-7]
        for j in (2, 3):
            expected = subset_volume_sum(gens, j)
            assert intrinsic_volume(Zonotope(gens), j) == pytest.approx(expected, rel=1e-12)

    def test_nearly_parallel_generators(self):
        # eight generators within ~1e-6 rad of one line in R^3.  Rounding the
        # inputs alone moves each area by ~1e-16 / 1e-6 relative, so 1e-9 is
        # what any backward-stable method meets; sqrt(det Gram) misses by ~3e-4.
        rng = np.random.default_rng(4)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = np.cross(u, rng.standard_normal(3))
        v /= np.linalg.norm(v)
        theta = 1e-6 * rng.uniform(-1.0, 1.0, size=8)
        gens = rng.uniform(0.5, 2.0, size=(8, 1)) * (u + theta[:, None] * v)
        areas = []
        for a, b in itertools.combinations(gens.tolist(), 2):
            a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
            minors = [a[i] * b[k] - a[k] * b[i] for i, k in ((0, 1), (0, 2), (1, 2))]
            areas.append(math.sqrt(sum(q * q for q in minors)))
        exact = math.fsum(areas)
        assert intrinsic_volume(Zonotope(gens), 2) == pytest.approx(exact, rel=1e-9)


_coordinate = st.floats(-10.0, 10.0, allow_nan=False).map(lambda v: round(v, 6))


@st.composite
def _generator_sets(draw, dims=st.integers(1, 5)):
    d = draw(dims)
    m = draw(st.integers(1, 9))
    values = draw(st.lists(_coordinate, min_size=m * d, max_size=m * d))
    return np.array(values, dtype=float).reshape(m, d)


def _orders(gens):
    return range(1, gens.shape[1] + 1)


@settings(max_examples=60, deadline=None)
@given(gens=_generator_sets(), seed=st.integers(0, 2**32 - 1))
def test_kernel_permutation_invariant(gens, seed):
    perm = np.random.default_rng(seed).permutation(len(gens))
    for j in _orders(gens):
        a = intrinsic_volume_of_generators(gens, j)
        b = intrinsic_volume_of_generators(gens[perm], j)
        if j <= 2:
            assert a == b
        else:
            assert abs(a - b) <= 1e-12 * _hadamard_bound(gens, j)


@settings(max_examples=60, deadline=None)
@given(gens=_generator_sets(), seed=st.integers(0, 2**32 - 1))
def test_kernel_rigid_motion_invariant(gens, seed):
    rng = np.random.default_rng(seed)
    d = gens.shape[1]
    R = rotation_matrix(rng, d)
    center = 10.0 * rng.standard_normal(d)
    for j in _orders(gens):
        base = intrinsic_volume(Zonotope(gens), j)
        assert intrinsic_volume(Zonotope(gens, center=center), j) == base
        rotated = intrinsic_volume(Zonotope(gens @ R.T, center=center), j)
        assert abs(rotated - base) <= 1e-12 * _hadamard_bound(gens, j)


@settings(max_examples=60, deadline=None)
@given(gens=_generator_sets(), k=st.integers(-4, 4), s=st.floats(0.1, 10.0))
def test_kernel_homogeneous(gens, k, s):
    for j in _orders(gens):
        base = intrinsic_volume_of_generators(gens, j)
        # scaling by a power of two is exact in every step
        assert intrinsic_volume_of_generators(2.0**k * gens, j) == 2.0 ** (k * j) * base
        scaled = intrinsic_volume_of_generators(s * gens, j)
        assert abs(scaled - s**j * base) <= 1e-12 * s**j * _hadamard_bound(gens, j)


@pytest.mark.parametrize("chunk", [zonotope._CHUNK, 1], ids=["default-chunk", "chunk-1"])
@settings(max_examples=60, deadline=None)
@given(gens=_generator_sets())
def test_kernel_matches_svd_reference(gens, chunk):
    # at the default block size these sets (m <= 9) fit in one block per
    # largest element; at 1 every subset is a block of its own
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zonotope, "_CHUNK", chunk)
        for j in _orders(gens):
            got = intrinsic_volume_of_generators(gens, j)
            assert abs(got - subset_volume_sum(gens, j)) <= 1e-12 * _hadamard_bound(gens, j)


@pytest.mark.parametrize(
    "gens",
    [np.random.default_rng(d).standard_normal((16, d)) for d in (3, 4, 5, 6)]
    # V_4 read 145.86220201960646 at the default block size, ...643 at 1
    + [np.random.default_rng(3).standard_normal((6, 5))],
    ids=["d3", "d4", "d5", "d6", "rng3-6x5"],
)
def test_volumes_do_not_depend_on_chunk(monkeypatch, gens):
    def volumes(chunk):
        monkeypatch.setattr(zonotope, "_CHUNK", chunk)
        return [intrinsic_volume_of_generators(gens, j) for j in _orders(gens)]

    default = volumes(zonotope._CHUNK)
    assert volumes(1) == default
    assert volumes(1 << 30) == default


@pytest.mark.parametrize("chunk", [1, 1 << 30], ids=["chunk-1", "one-run"])
def test_minors_and_face_forms_do_not_depend_on_chunk(monkeypatch, chunk):
    # at the default block size a 6-minor row of two sets in R^12 takes
    # 11 088 products and in R^15 60 060, so the larger colex blocks come in
    # slices; at 1 every row is a slice, at 2^30 every table is one run
    G = np.random.default_rng(12).standard_normal((12, 11, 2))
    pts = np.random.default_rng(8).standard_normal((8, 15))

    def tables():
        forms = [arr for group in medians._face_forms(pts, (7,)) for arr in group]
        return [zonotope._minors(G, t) for t in range(7)] + forms

    default = tables()
    monkeypatch.setattr(zonotope, "_CHUNK", chunk)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(tables(), default, strict=True))


@settings(max_examples=60, deadline=None)
@given(gens=_generator_sets(dims=st.just(2)))
def test_planar_prefix_sum_matches_pairs(gens):
    pairs = [abs(a[0] * b[1] - a[1] * b[0]) for a, b in itertools.combinations(gens.tolist(), 2)]
    got = intrinsic_volume_of_generators(gens, 2)
    assert abs(got - math.fsum(pairs)) <= 1e-12 * _hadamard_bound(gens, 2)


@st.composite
def _scaled_generator_sets(draw):
    """Sets in d = 2-6 at a scale between 1e-150 and 1e150, row scales up to
    e^+-30, with zero generators and repeated rows."""
    d = draw(st.integers(2, 6))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = rng.standard_normal((m, d)) * 10.0 ** draw(st.floats(-150.0, 150.0))
    if draw(st.booleans()):
        gens *= np.exp(rng.uniform(-30.0, 30.0, (m, 1)))
    gens[rng.random(m) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    repeats = rng.integers(0, m, draw(st.integers(0, 3)))
    return np.vstack([gens, gens[repeats]])


@settings(max_examples=150, deadline=None)
@given(gens=_scaled_generator_sets(), chunk=st.sampled_from([zonotope._CHUNK, 40]))
def test_exact_sum_is_fsum_of_the_terms(gens, chunk):
    # at a block size of 40 the kernel yields its terms in several blocks
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(zonotope, "_CHUNK", chunk)
        for j in range(1, min(gens.shape) + 1):
            terms = list(zonotope._volume_terms(gens[None], j))
            try:
                expected = math.fsum(itertools.chain.from_iterable(t.ravel().tolist() for t in terms))
            except OverflowError:
                with pytest.raises(OverflowError):
                    zonotope._exact_sum(terms)
                continue
            [got] = zonotope._exact_sum(terms)
            assert got == expected or (math.isnan(got) and math.isnan(expected))


_term = st.one_of(
    st.floats(0.0, 1e308, allow_subnormal=True),
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.7e308, math.inf]),
)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(_term, max_size=200))
def test_extract_keeps_the_exact_sum(values):
    # subnormal, overflowing and infinite terms take the float path.  The
    # values go in as one column, as three columns (the values, the values
    # reversed and halved, zeros), and repeated to 4096 rows in those three
    # columns, so that extraction runs at small, mid and large row counts
    terms = np.array(values, dtype=float)
    three = np.column_stack([terms, terms[::-1] * 0.5, np.zeros_like(terms)])
    repeated = three[np.arange(4096) % len(three)] if len(three) else three
    for a in (terms[:, None], three, repeated):
        columns = a.T.tolist()
        partials = []
        zonotope._extract(a.copy(), partials)
        got = np.concatenate(partials).T.tolist()
        for column, rows in zip(columns, got):
            try:
                expected = math.fsum(column)
            except OverflowError:
                with pytest.raises(OverflowError):
                    math.fsum(rows)
                continue
            assert math.fsum(rows) == expected


@settings(max_examples=60, deadline=None)
@given(gens=_generator_sets(), s=st.integers(-600, 600))
def test_kernel_power_of_two_scaling_is_exact(gens, s):
    # generators far from order 1 are rescaled by a power of two first, so
    # V_j(2^s G) is the once-rounded 2^(j s) V_j(G) even where the squared
    # minors of 2^s G would leave float64
    for j in _orders(gens):
        try:
            expected = math.ldexp(intrinsic_volume_of_generators(gens, j), j * s)
        except OverflowError:
            with pytest.raises(OverflowError):
                intrinsic_volume_of_generators(2.0**s * gens, j)
            continue
        assert intrinsic_volume_of_generators(2.0**s * gens, j) == expected


def test_large_generators_overflow_only_past_float64():
    # the squared 2 x 2 minors of these pass float64, V_2 (about 1e206) does
    # not; V_3 (about 1e310) does
    gens = np.random.default_rng(0).standard_normal((40, 3)) * 1e102
    v2 = intrinsic_volume_of_generators(gens, 2)
    assert math.isfinite(v2)
    assert v2 == pytest.approx(subset_volume_sum(gens, 2), rel=1e-12)
    with pytest.raises(OverflowError, match="V_3"):
        intrinsic_volume_of_generators(gens, 3)


def _lexsort_planar_terms(H):
    """_planar_terms with every row sorted on (angle, x, y) by np.lexsort."""
    x, y = H[..., 0], H[..., 1]
    flip = (y < 0.0) | ((y == 0.0) & (x < 0.0))
    H = np.where(flip[..., None], -H, H)
    x, y = H[..., 0], H[..., 1]
    order = np.lexsort((y, x, np.arctan2(y, x)), axis=-1)
    H = H[np.arange(len(H))[:, None], order]
    P = np.cumsum(H[:, :-1], axis=1)
    return np.maximum(P[..., 0] * H[:, 1:, 1] - P[..., 1] * H[:, 1:, 0], 0.0)


def _tied_grid_set(rng, m):
    """Integer-grid generators with repeated, antiparallel and zero rows."""
    gens = rng.integers(-3, 4, (m, 2)).astype(float)
    picks = rng.integers(0, m, 3)
    return np.vstack([gens, gens[picks[:2]], -gens[picks[2:]], np.zeros((1, 2))])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), b=st.sampled_from([1, 6]))
def test_planar_order_matches_lexsort(seed, m, b):
    # in a batch, tied grid sets sit next to untied Gaussian ones
    rng = np.random.default_rng(seed)
    sets = [_tied_grid_set(rng, m) if rng.random() < 0.5 else rng.standard_normal((m + 4, 2))
            for _ in range(b)]
    H = np.stack(sets)
    np.testing.assert_array_equal(zonotope._planar_terms(H), _lexsort_planar_terms(H))


@pytest.mark.parametrize("d", [2, 3])
def test_mc_planar_order_matches_lexsort(monkeypatch, d):
    rng = np.random.default_rng(d)
    gens = rng.integers(-2, 3, (30, d)).astype(float)
    gens = np.vstack([gens, gens[:6], -gens[6:12], 2.0 * gens[12:15], np.zeros((2, d))])
    z = Zonotope(gens)
    got = mc_intrinsic_volume(z, 2, 3000, seed=d)
    monkeypatch.setattr(zonotope, "_planar_terms", _lexsort_planar_terms)
    assert mc_intrinsic_volume(z, 2, 3000, seed=d) == got


def _well_conditioned(rng, d):
    """A d x d matrix Q diag(s) R, Q and R rotations, s uniform in [0.5, 2]:
    ||M|| <= 2 and cond(M) <= 4."""
    return (rotation_matrix(rng, d) * rng.uniform(0.5, 2.0, d)) @ rotation_matrix(rng, d)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), extra=st.integers(0, 2),
       repeats=st.integers(0, 3), k=st.sampled_from([-200, 0, 200]))
def test_kernel_on_projected_generators(seed, d, extra, repeats, k):
    # V_d(G M') = |det M| V_d(G), since det(M G_S) = det M det G_S for every
    # d-subset S.  The kernel sees G M', whose generators are at most ||M|| = 2
    # times longer, so the bound is 1e-12 of ||M||^d times the Hadamard sum of G.
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((d + extra, d))
    base = np.vstack([base, base[rng.integers(0, len(base), repeats)]])
    M = _well_conditioned(rng, d)
    gens = np.ldexp(base, k)
    got = math.ldexp(intrinsic_volume_of_generators(gens @ M.T, d), -k * d)
    expected = abs(np.linalg.det(M)) * math.ldexp(intrinsic_volume_of_generators(gens, d), -k * d)
    assert abs(got - expected) <= 1e-12 * 2.0**d * _hadamard_bound(base, d)


def _gaussian_scale(j):
    return (2.0 * math.pi) ** (j / 2) / (math.factorial(j) * unit_ball_volume(j))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mc_single_draw_is_the_definition(d, seed):
    # one draw is scale_j V_j(G M1'), M1 the first j x d Gaussian matrix of
    # the seed's stream.  j = d takes |det M1| V_d(G), and j < d adds the
    # projected kernel's terms in plain floating point, so the two agree to
    # 1e-12 of the Hadamard sum of the projected generators.
    gens = np.random.default_rng(100 + seed).standard_normal((d + 3, d))
    z = Zonotope(gens)
    for j in range(1, d + 1):
        projected = gens @ np.random.default_rng(seed).standard_normal((1, j, d))[0].T
        est = mc_intrinsic_volume(z, j, 1, seed)
        expected = intrinsic_volume_of_generators(projected, j)
        tol = 1e-12 * _hadamard_bound(projected, j)
        assert abs(est.estimate / _gaussian_scale(j) - expected) <= tol
        assert (est.std_error, est.samples) == (0.0, 1)


def _projected_batch_estimate(z, j, samples, seed):
    """The Monte Carlo estimate by V_j of each draw's projected generators,
    summed term by term in batches of _CHUNK // (m j) draws."""
    G = z.generators
    m, d = G.shape
    rng = np.random.default_rng(seed)
    vals = np.zeros(samples)
    batch = max(1, zonotope._CHUNK // (m * j))
    for start in range(0, samples, batch):
        M = rng.standard_normal((min(batch, samples - start), j, d))
        for terms in zonotope._volume_terms(G @ np.swapaxes(M, 1, 2), j):
            vals[start : start + len(M)] += terms.sum(axis=0)
    return MonteCarloEstimate.from_samples(vals, _gaussian_scale(j))


@pytest.mark.parametrize("d, m, samples", [(2, 30, 500), (3, 40, 2000), (4, 12, 3000), (5, 7, 400)])
def test_mc_below_top_order_is_the_projected_kernel(d, m, samples):
    # (3, 40) and (4, 12) take several batches
    z = Zonotope(np.random.default_rng(d).standard_normal((m, d)))
    for j in range(1, d):
        got = mc_intrinsic_volume(z, j, samples, seed=7 + j)
        expected = _projected_batch_estimate(z, j, samples, seed=7 + j)
        assert (got.estimate, got.std_error) == (expected.estimate, expected.std_error)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_mc_top_order_does_not_depend_on_batch(monkeypatch, d):
    # each draw's |det M| V_d is formed on its own, and the Gaussian stream
    # does not depend on how it is split into batches
    z = Zonotope(np.random.default_rng(d).standard_normal((d + 4, d)))
    default = mc_intrinsic_volume(z, d, 3000, seed=9)
    monkeypatch.setattr(zonotope, "_CHUNK", 1)
    assert mc_intrinsic_volume(z, d, 3000, seed=9) == default


_BELOW, _ABOVE = zonotope._PIVOT_FROM - 1, zonotope._PIVOT_FROM


def _pivot_case(kind, m):
    """m generators in R^3: Gaussian, near-flat (third coordinate 1e-7),
    within 1e-6 rad of one line, or an integer grid with repeated,
    antiparallel and zero rows."""
    rng = np.random.default_rng(m)
    if kind == "gaussian":
        return rng.standard_normal((m, 3))
    if kind == "flat":
        return rng.standard_normal((m, 3)) * [1.0, 1.0, 1e-7]
    if kind == "line":
        frame = rotation_matrix(rng, 3)
        tilt = np.column_stack([np.ones(m), 1e-6 * rng.uniform(-0.7, 0.7, (m, 2))])
        return rng.uniform(0.5, 2.0, (m, 1)) * tilt @ frame.T
    gens = rng.integers(-3, 4, (m - 4, 3)).astype(float)
    picks = rng.integers(0, m - 4, 3)
    return np.vstack([gens, gens[picks[:2]], -gens[picks[2:]], np.zeros((1, 3))])


_PIVOT_KINDS = ["gaussian", "flat", "line", "grid"]


@pytest.mark.parametrize("k", [0, 200, -200])
@pytest.mark.parametrize("kind", _PIVOT_KINDS)
@pytest.mark.parametrize("m", [_BELOW, _ABOVE], ids=["minors", "pivots"])
def test_v3_agrees_across_the_pivot_crossover(m, kind, k):
    # just below _PIVOT_FROM V_3 in R^3 comes from the 3 x 3 minors, from it
    # on by pivoting onto the planar prefix sum; both match the QR reference
    # (the near-flat sets to 1e-12 relative) and scale exactly by 2^(3k)
    base = _pivot_case(kind, m)
    gens = np.ldexp(base, k)
    got = intrinsic_volume_of_generators(gens, 3)
    expected = subset_volume_sum(gens, 3)
    if kind == "flat":
        assert got == pytest.approx(expected, rel=1e-12)
    else:
        assert abs(got - expected) <= 1e-12 * _hadamard_bound(gens, 3)
    assert got == math.ldexp(intrinsic_volume_of_generators(base, 3), 3 * k)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", _PIVOT_KINDS)
def test_pivot_v3_is_permutation_exact(kind, seed):
    # a pivot's terms depend on it and the multiset of the other generators,
    # and the sum of all of them is rounded once
    gens = _pivot_case(kind, _ABOVE + 9)
    perm = np.random.default_rng(seed).permutation(len(gens))
    assert intrinsic_volume_of_generators(gens[perm], 3) == intrinsic_volume_of_generators(gens, 3)


def test_pivot_batch_has_the_bits_of_single_calls():
    # 400 query points take three of discrepancy_volumes' batches at
    # n = 40; three of them are sample points, whose zero generator pivots
    n = _ABOVE
    pts = np.random.default_rng(5).standard_normal((n, 3))
    X = np.vstack([np.random.default_rng(6).standard_normal((397, 3)), pts[:3]])
    values = zonotope.discrepancy_volumes(pts, X, 3)
    assert values.tolist() == [intrinsic_volume_of_generators(x - pts, 3) for x in X]


_OVERSIZED = """
import json, math, resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from zonomed.errors import ZonomedError
from zonomed.zonotope import intrinsic_volume_of_generators, wills_of_generators
gens = np.random.default_rng(0).standard_normal((14, 15))
computed = [intrinsic_volume_of_generators(gens, 14), math.sqrt(np.linalg.det(gens @ gens.T))]
refusals = []
for call in [lambda: intrinsic_volume_of_generators(np.random.default_rng(0).standard_normal((16, 15)), 15),
             lambda: wills_of_generators(np.random.default_rng(0).standard_normal((16, 16)), 16)]:
    start = time.perf_counter()
    try:
        call()
    except ZonomedError as refused:
        refusals.append([time.perf_counter() - start, str(refused)])
print(json.dumps([computed, refusals]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs resource.setrlimit")
def test_oversized_exact_volume_refused_up_front():
    # under a 1 GiB address-space limit, V_14 of 14 generators in R^15 (its
    # minor tables about 155 MiB, sliced) is computed and equals
    # sqrt(det G G'); V_15 of 16 generators in R^15 (about 637 MiB) is
    # refused at once, and so is the Wills functional of 16 generators in
    # R^16, at its first oversized order, before V_1 is computed
    src = str(Path(zonomed.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _OVERSIZED], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (got, expected), refusals = json.loads(proc.stdout)
    assert abs(got - expected) <= 1e-12 * expected
    assert [message.split(" needs ")[0] for _, message in refusals] == [
        "V_15 of 16 generators in R^15", "V_9 of 16 generators in R^16"]
    assert all(seconds < 1.0 for seconds, _ in refusals)
    assert all(f"over {zonotope._SOLVE_BYTES}" in message for _, message in refusals)
