import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopwl.validation import relative_error

from reference import (
    EsoWitness,
    FillingState,
    PwlGrid,
    compensation_witness,
    eso_error,
    eso_fill,
    is_eso,
    lambda_up,
    min_pwl_oracle,
    pwl_value,
    segment_slope,
)

GRID = PwlGrid(y_max=10.0, num_segments=5)


def state(*deltas):
    return FillingState(grid=GRID, deltas=deltas)


class TestGrid:
    def test_seg_width(self):
        assert GRID.seg_width * GRID.num_segments == GRID.y_max

    def test_invalid(self):
        with pytest.raises(ValueError):
            PwlGrid(y_max=-1.0, num_segments=5)
        with pytest.raises(ValueError):
            PwlGrid(y_max=10.0, num_segments=0)

    def test_filling_invariants(self):
        with pytest.raises(ValueError):
            state(3.0, 0, 0, 0, 0)  # above segment width
        with pytest.raises(ValueError):
            state(-0.5, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            FillingState(grid=GRID, deltas=(0, 0, 0))  # wrong length


class TestSegmentSlope:
    @pytest.mark.parametrize("lam,expected", [(1, 2.0), (3, 10.0), (5, 18.0)])
    def test_values(self, lam, expected):
        assert segment_slope(GRID, lam) == pytest.approx(expected)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            segment_slope(GRID, 0)
        with pytest.raises(ValueError):
            segment_slope(GRID, 6)

    def test_strictly_increasing(self):
        slopes = [segment_slope(GRID, lam) for lam in range(1, 6)]
        assert slopes == sorted(slopes)
        assert len(set(slopes)) == len(slopes)


class TestLambdaUp:
    @pytest.mark.parametrize("y,expected", [(0.0, 1), (3.5, 2), (2.0, 1), (10.0, 5)])
    def test_values(self, y, expected):
        assert lambda_up(GRID, y) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda_up(GRID, -0.1)
        with pytest.raises(ValueError):
            lambda_up(GRID, 10.5)


class TestEsoFill:
    def test_zero(self):
        assert eso_fill(GRID, 0.0).deltas == (0, 0, 0, 0, 0)

    def test_half(self):
        assert eso_fill(GRID, 5.0).deltas == pytest.approx((2, 2, 1, 0, 0))

    def test_full(self):
        assert eso_fill(GRID, 10.0).deltas == pytest.approx((2, 2, 2, 2, 2))

    def test_total_matches(self):
        for y in (0.0, 0.3, 2.0, 5.7, 9.99, 10.0):
            assert sum(eso_fill(GRID, y).deltas) == pytest.approx(y, abs=1e-12)


class TestPwlValue:
    def test_empty(self):
        assert pwl_value(state(0, 0, 0, 0, 0)) == 0.0

    def test_ordered(self):
        assert pwl_value(state(2, 2, 1, 0, 0)) == pytest.approx(26.0)

    def test_unordered_same_total(self):
        assert pwl_value(state(1, 2, 2, 0, 0)) == pytest.approx(34.0)


class TestRelativeError:
    def test_values(self):
        assert relative_error(26.0, 5.0) == pytest.approx(4.0)
        assert relative_error(25.0, 5.0) == 0.0
        # y at half a segment width: approximation doubles the square
        assert relative_error(2.0, 1.0) == pytest.approx(100.0)

    def test_zero_flow(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)


class TestIsEso:
    def test_ordered(self):
        assert is_eso(state(2, 2, 1, 0, 0), tol=1e-9)

    def test_unordered(self):
        assert not is_eso(state(1, 2, 2, 0, 0), tol=1e-9)

    def test_empty(self):
        assert is_eso(state(0, 0, 0, 0, 0), tol=1e-9)

    def test_boundary_attribution(self):
        # a grid-point total may sit in either adjacent segment
        assert is_eso(state(2, 2, 0, 0, 0), tol=1e-9)
        assert is_eso(state(2, 1.999999, 0, 0, 0), tol=1e-5)

    def test_tolerance(self):
        assert is_eso(state(1.9999, 2, 1, 0, 0), tol=1e-3)
        assert not is_eso(state(1.9999, 2, 1, 0, 0), tol=1e-6)


class TestEsoError:
    @pytest.mark.parametrize("y,expected", [(4.0, 0.0), (5.0, 1.0), (1.0, 1.0)])
    def test_values(self, y, expected):
        assert eso_error(GRID, y) == pytest.approx(expected, abs=1e-12)

    def test_matches_definition(self):
        for y in (0.5, 1.7, 3.3, 6.0, 9.9):
            direct = pwl_value(eso_fill(GRID, y)) - y * y
            assert eso_error(GRID, y) == pytest.approx(direct, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            eso_error(GRID, 0.0)
        with pytest.raises(ValueError):
            eso_error(GRID, 11.0)


class TestOracle:
    def test_matches_ordered_fill(self):
        # the oracle total may shift by one step, so the agreement slack is
        # seg_width^2/4 + 2*y_max*step
        step = GRID.seg_width / 20
        slack = GRID.seg_width**2 / 4 + 2 * GRID.y_max * step + 1e-9
        assert min_pwl_oracle(GRID, 5.0, 20) == pytest.approx(26.0, abs=slack)

    def test_full_capacity(self):
        assert min_pwl_oracle(GRID, 10.0, 20) == pytest.approx(100.0, abs=1e-9)

    def test_zero(self):
        assert min_pwl_oracle(PwlGrid(10.0, 2), 0.0, 20) == 0.0

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            min_pwl_oracle(PwlGrid(10.0, 7), 5.0, 20)
        with pytest.raises(ValueError):
            min_pwl_oracle(GRID, 5.0, 1)


class TestWitness:
    def test_unordered(self):
        w = compensation_witness(state(1, 2, 2, 0, 0))
        assert w == EsoWitness(deficient_index=1, compensating_index=3, remainder=1.0)

    def test_ordered(self):
        assert compensation_witness(state(2, 2, 1, 0, 0)) is None

    def test_empty(self):
        assert compensation_witness(state(0, 0, 0, 0, 0)) is None


# -- properties ------------------------------------------------------------

grids = st.builds(
    PwlGrid,
    y_max=st.floats(0.5, 20.0),
    num_segments=st.integers(1, 30),
)


@st.composite
def grid_and_y(draw):
    grid = draw(grids)
    y = draw(st.floats(0.0, 1.0)) * grid.y_max
    return grid, y


@st.composite
def random_fillings(draw):
    grid = draw(grids)
    fracs = draw(
        st.lists(
            st.floats(0.0, 1.0),
            min_size=grid.num_segments,
            max_size=grid.num_segments,
        )
    )
    deltas = tuple(f * grid.seg_width for f in fracs)
    return FillingState(grid=grid, deltas=deltas)


@given(random_fillings())
def test_over_approximation_property(filling):
    y = filling.total
    assert pwl_value(filling) >= y * y - 1e-9


@given(grid_and_y())
def test_closed_form_identity_property(gy):
    grid, y = gy
    if y == 0:
        return
    assert pwl_value(eso_fill(grid, y)) - y * y == pytest.approx(
        eso_error(grid, y), abs=1e-9
    )


@given(grid_and_y())
def test_error_bound_property(gy):
    grid, y = gy
    if y == 0:
        return
    assert eso_error(grid, y) <= grid.seg_width**2 / 4 + 1e-9


@given(grids, st.integers(1, 30))
def test_slope_telescoping(grid, m):
    m = min(m, grid.num_segments)
    h = grid.seg_width
    total = sum(segment_slope(grid, lam) * h for lam in range(1, m + 1))
    assert total == pytest.approx((m * h) ** 2, abs=1e-9)


@given(random_fillings())
def test_witness_iff_unordered(filling):
    slack = 1e-9 * max(1.0, filling.grid.seg_width)
    w = compensation_witness(filling)
    if is_eso(filling, slack):
        assert w is None
    else:
        assert w is not None
        assert filling.deltas[w.deficient_index - 1] < filling.grid.seg_width
        assert w.deficient_index < w.compensating_index


@settings(max_examples=30)
@given(
    st.integers(2, 5),
    st.floats(0.01, 1.0),
)
def test_minimality_against_oracle(num_segments, frac):
    grid = PwlGrid(y_max=8.0, num_segments=num_segments)
    y = frac * grid.y_max
    step = grid.seg_width / 20
    slack = grid.seg_width**2 / 4 + 2 * grid.y_max * step + 1e-9
    oracle = min_pwl_oracle(grid, y, 20)
    assert oracle >= y * y - (2 * grid.y_max * step + step**2) - 1e-9
    assert oracle == pytest.approx(pwl_value(eso_fill(grid, y)), abs=slack)
