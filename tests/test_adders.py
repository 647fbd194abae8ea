"""Unit tests for the full-adder cell library."""

import numpy as np
import pytest

from repro.arith.adders import (
    ADDER_CELLS,
    AMA1,
    AMA2,
    AMA3,
    AMA4,
    AMA5,
    ExactFullAdder,
    list_cells,
)


def test_exact_full_adder_truth_table():
    cell = ExactFullAdder()
    expected = {
        (0, 0, 0): (0, 0),
        (0, 0, 1): (1, 0),
        (0, 1, 0): (1, 0),
        (0, 1, 1): (0, 1),
        (1, 0, 0): (1, 0),
        (1, 0, 1): (0, 1),
        (1, 1, 0): (0, 1),
        (1, 1, 1): (1, 1),
    }
    for (a, b, cin), (s, c) in expected.items():
        out_s, out_c = cell.compute(np.array([a]), np.array([b]), np.array([cin]))
        assert (int(out_s[0]), int(out_c[0])) == (s, c)


def test_exact_adder_has_no_errors():
    assert ExactFullAdder().error_count() == (0, 0)


def test_ama5_is_two_buffers():
    cell = AMA5()
    for a in (0, 1):
        for b in (0, 1):
            for cin in (0, 1):
                s, c = cell.compute(np.array([a]), np.array([b]), np.array([cin]))
                assert int(s[0]) == b
                assert int(c[0]) == a


def test_ama5_ignores_carry_input():
    cell = AMA5()
    a = np.array([0, 1, 0, 1])
    b = np.array([0, 0, 1, 1])
    s0, c0 = cell.compute(a, b, np.zeros(4, dtype=int))
    s1, c1 = cell.compute(a, b, np.ones(4, dtype=int))
    np.testing.assert_array_equal(s0, s1)
    np.testing.assert_array_equal(c0, c1)


def test_ama1_sum_is_not_cout_with_exact_cout():
    cell = AMA1()
    exact = ExactFullAdder()
    for a in (0, 1):
        for b in (0, 1):
            for cin in (0, 1):
                s, c = cell.compute(np.array([a]), np.array([b]), np.array([cin]))
                _, ec = exact.compute(np.array([a]), np.array([b]), np.array([cin]))
                assert int(c[0]) == int(ec[0])
                assert int(s[0]) == 1 - int(c[0])


def test_ama1_has_exactly_two_sum_errors():
    sum_errors, cout_errors = AMA1().error_count()
    assert sum_errors == 2
    assert cout_errors == 0


def test_ama4_keeps_sum_exact():
    sum_errors, _ = AMA4().error_count()
    assert sum_errors == 0


@pytest.mark.parametrize("cell_cls", [AMA1, AMA2, AMA3, AMA4, AMA5])
def test_approximate_cells_are_cheaper_than_exact(cell_cls):
    cell = cell_cls()
    exact = ExactFullAdder()
    assert cell.transistor_count < exact.transistor_count
    assert cell.relative_delay <= exact.relative_delay


@pytest.mark.parametrize("cell_cls", [AMA1, AMA2, AMA3, AMA4, AMA5])
def test_approximate_cells_have_some_error(cell_cls):
    sum_errors, cout_errors = cell_cls().error_count()
    assert sum_errors + cout_errors > 0


def test_cells_vectorised_over_arrays():
    cell = AMA5()
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, size=100).astype(np.uint8)
    b = rng.integers(0, 2, size=100).astype(np.uint8)
    cin = rng.integers(0, 2, size=100).astype(np.uint8)
    s, c = cell.compute(a, b, cin)
    assert s.shape == (100,)
    np.testing.assert_array_equal(s, b)
    np.testing.assert_array_equal(c, a)


def test_registry_contains_all_cells():
    names = list_cells()
    for expected in ("exact", "ama1", "ama2", "ama3", "ama4", "ama5"):
        assert expected in names


def test_registry_lookup_and_unknown_cell():
    assert isinstance(ADDER_CELLS.create("ama5"), AMA5)
    with pytest.raises(KeyError):
        ADDER_CELLS.create("does-not-exist")


def test_truth_table_has_eight_rows():
    table = AMA3().truth_table()
    assert len(table) == 8
    assert all(len(row) == 5 for row in table)
