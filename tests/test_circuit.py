"""Circuit solver against hand computations and an independent nodal oracle."""

import math

import numpy as np
import pytest

from reflexgrid.circuit import Branch, CircuitConfig, solve, v_load_for_count


def nodal_oracle(config: CircuitConfig, v_source: float, flex_on):
    """Independent route: assemble the full linear system over the bus
    voltage, the source current, and one current per resistor, then solve
    it numerically.  Shares only Ohm's and Kirchhoff's laws with the
    implementation, not its closed form."""
    resistors = []  # (branch index, resistance)
    for k, branch in enumerate(config.branches):
        resistors.append((k, branch.r_base))
        if flex_on[k]:
            resistors.append((k, branch.r_flex))
    m = 2 + len(resistors)  # unknowns: v_load, i_total, i_r...
    a = np.zeros((m, m))
    b = np.zeros(m)
    a[0, 0] = 1.0
    a[0, 1] = config.r_source
    b[0] = v_source  # KVL: v_load + r_source*i_total = v_source
    a[1, 1] = 1.0
    for j in range(len(resistors)):
        a[1, 2 + j] = -1.0  # KCL: i_total = sum of resistor currents
    for j, (_, r) in enumerate(resistors):
        a[2 + j, 0] = 1.0
        a[2 + j, 2 + j] = -r  # Ohm: v_load = r * i_r
    x = np.linalg.solve(a, b)
    branch_currents = np.zeros(config.n_branches)
    for j, (k, _) in enumerate(resistors):
        branch_currents[k] += x[2 + j]
    return x[0], x[1], branch_currents


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestSolveExamples:
    def test_equal_divider(self):
        config = CircuitConfig(10.0, (Branch(10.0, 10.0),))
        sol = solve(config, 10.0, [False])
        assert sol.v_load == pytest.approx(5.0, rel=1e-12)

    def test_two_branch_hand_computation(self):
        # G = 1/4 + 1/4 + 1/4 = 0.75 S, so v_load = 12 / 1.75 = 48/7
        config = CircuitConfig.homogeneous(2, 1.0, 4.0, 4.0)
        sol = solve(config, 12.0, [True, False])
        assert sol.v_load == pytest.approx(48.0 / 7.0, rel=1e-12)
        v, i, branch = nodal_oracle(config, 12.0, [True, False])
        assert rel_err(sol.v_load, v) < 1e-9
        assert rel_err(sol.i_total, i) < 1e-9

    def test_connecting_flex_strictly_lowers_v_load(self):
        config = CircuitConfig.homogeneous(2, 1.0, 4.0, 4.0)
        base = solve(config, 12.0, [False, False]).v_load
        assert solve(config, 12.0, [True, False]).v_load < base
        assert solve(config, 12.0, [True, True]).v_load < solve(
            config, 12.0, [True, False]
        ).v_load


class TestConnectionVector:
    def test_list_tuple_and_array_solve_identically(self):
        config = CircuitConfig(0.3, (Branch(20.0, 10.0), Branch(7.0, 3.5), Branch(1.5, 40.0)))
        flags = [True, False, True]
        sols = [solve(config, 12.0, v) for v in (flags, tuple(flags), np.array(flags, dtype=bool))]
        # finite, non-zero floats compare equal only when their bits are equal
        assert sols[1] == sols[0] and sols[2] == sols[0]
        assert type(sols[0].branch_currents) is tuple

    def test_package_no_longer_exports_a_load_state_wrapper(self):
        import reflexgrid
        import reflexgrid.circuit

        assert "LoadState" not in reflexgrid.__all__
        assert not hasattr(reflexgrid.circuit, "LoadState")


class TestValidation:
    def test_non_positive_resistances_rejected(self):
        with pytest.raises(ValueError):
            Branch(0.0, 1.0)
        with pytest.raises(ValueError):
            Branch(1.0, -2.0)
        with pytest.raises(ValueError):
            CircuitConfig(0.0, (Branch(1.0, 1.0),))
        with pytest.raises(ValueError):
            CircuitConfig(1.0, ())

    @pytest.mark.parametrize("r_base, r_flex", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                                (1.0, math.nan)])
    def test_non_finite_resistances_rejected(self, r_base, r_flex):
        with pytest.raises(ValueError, match="must be finite and positive"):
            Branch(r_base, r_flex)

    @pytest.mark.parametrize("r_base, r_flex", [(5e-324, 100.0), (1e-308, 50.0), (100.0, 5e-324),
                                                (100.0, 5e-307)])
    def test_conductance_past_the_largest_float_rejected(self, r_base, r_flex):
        # each branch is valid; 100 of them in parallel are not
        Branch(r_base, r_flex)
        with pytest.raises(ValueError, match="r_base and r_flex give 100 branches"):
            CircuitConfig.homogeneous(100, 0.08, r_base, r_flex)
        with pytest.raises(ValueError, match="r_base and r_flex give 100 branches"):
            CircuitConfig(0.08, (Branch(100.0, 50.0),) * 99 + (Branch(r_base, r_flex),))

    def test_g_max_is_n_times_the_largest_branch_conductance(self):
        assert CircuitConfig.homogeneous(100, 0.08, 100.0, 1e-306).g_max == 100 * (1 / 100.0 + 1 / 1e-306)
        assert CircuitConfig(1.0, (Branch(4.0, 4.0), Branch(1.0, 2.0), Branch(2.0, 2.0))).g_max == 3 * 1.5

    def test_dimension_mismatch(self):
        config = CircuitConfig.homogeneous(3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"flex_on has shape \(1,\) for 3 branches"):
            solve(config, 1.0, [True])

    @pytest.mark.parametrize("shape", [(3,), (4, 1)])
    def test_shape_other_than_n_rejected(self, shape):
        config = CircuitConfig.homogeneous(4, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError) as err:
            solve(config, 1.0, np.ones(shape, dtype=bool))
        assert str(err.value) == f"flex_on has shape {shape} for 4 branches"

    def test_negative_source_rejected(self):
        config = CircuitConfig.homogeneous(1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve(config, -1.0, [False])


class TestKirchhoffInvariants:
    def test_kcl_kvl_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            r = np.exp(rng.uniform(np.log(0.1), np.log(100.0), size=(n, 2)))
            config = CircuitConfig(
                float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
                tuple(Branch(float(rb), float(rf)) for rb, rf in r),
            )
            vs = float(rng.uniform(1.0, 1000.0))
            loads = rng.random(n) < 0.5
            sol = solve(config, vs, loads)
            assert rel_err(sol.i_total, sum(sol.branch_currents)) < 1e-9
            assert rel_err(vs, sol.i_total * config.r_source + sol.v_load) < 1e-9
            assert 0.0 < sol.v_load < vs

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(1, 21))
            r = np.exp(rng.uniform(np.log(0.1), np.log(100.0), size=(n, 2)))
            config = CircuitConfig(
                float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
                tuple(Branch(float(rb), float(rf)) for rb, rf in r),
            )
            vs = float(rng.uniform(1.0, 1000.0))
            loads = rng.random(n) < 0.5
            sol = solve(config, vs, loads)
            v, i, branch = nodal_oracle(config, vs, loads)
            worst = max(worst, rel_err(sol.v_load, v), rel_err(sol.i_total, i))
            for k in range(n):
                worst = max(worst, rel_err(sol.branch_currents[k], branch[k]))
        assert worst < 1e-9

    def test_linearity_in_source_voltage(self):
        config = CircuitConfig.homogeneous(5, 0.3, 20.0, 10.0)
        loads = [True, False, True, False, True]
        a = solve(config, 10.0, loads)
        b = solve(config, 25.0, loads)
        k = 2.5
        assert b.v_load == pytest.approx(k * a.v_load, rel=1e-12)
        assert b.i_total == pytest.approx(k * a.i_total, rel=1e-12)
        for x, y in zip(a.branch_currents, b.branch_currents):
            assert y == pytest.approx(k * x, rel=1e-12)


class TestVLoadForCount:
    def test_consistency_with_solve_at_extremes(self):
        config = CircuitConfig.homogeneous(10, 0.08, 100.0, 50.0)
        all_off = solve(config, 10.0, [False] * 10).v_load
        all_on = solve(config, 10.0, [True] * 10).v_load
        assert v_load_for_count(config, 10.0, 0) == pytest.approx(all_off, rel=1e-12)
        assert v_load_for_count(config, 10.0, 10) == pytest.approx(all_on, rel=1e-12)

    def test_matches_solve_for_any_choice_by_symmetry(self):
        config = CircuitConfig.homogeneous(6, 0.08, 100.0, 50.0)
        chosen = [False, True, False, True, True, False]
        assert v_load_for_count(config, 10.0, 3) == pytest.approx(
            solve(config, 10.0, chosen).v_load, rel=1e-12
        )

    def test_strictly_decreasing_in_count(self):
        config = CircuitConfig.homogeneous(10, 0.08, 100.0, 50.0)
        values = [v_load_for_count(config, 10.0, k) for k in range(11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_heterogeneous_rejected(self):
        config = CircuitConfig(1.0, (Branch(1.0, 1.0), Branch(2.0, 1.0)))
        with pytest.raises(ValueError):
            v_load_for_count(config, 10.0, 1)

    def test_count_bounds(self):
        config = CircuitConfig.homogeneous(3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            v_load_for_count(config, 10.0, 4)
        with pytest.raises(ValueError):
            v_load_for_count(config, 10.0, -1)
