"""LP construction, the HiGHS solve, and its oracles: the reference dense
simplex and the discrete weight grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cshc.data import CorrectnessMatrix
from cshc.lp import (LpInstance, _merge_equivalent, build_instance,
                     instance_dump, penalties_given_weights, solve)
from lp_reference import merge_equivalent, reference_solve
from test_forest import simple_bundle


def grid_oracle(inst, step=1):
    """Best objective over integer weight vectors summing to 100, with
    the closed-form inner penalties. Independent of any LP solver."""
    n = inst.n
    best = np.inf
    if n == 1:
        combos = [(100,)]
    elif n == 2:
        combos = [(w, 100 - w) for w in range(0, 101, step)]
    else:
        combos = [(a, b, 100 - a - b)
                  for a in range(0, 101, step)
                  for b in range(0, 101 - a, step)]
    for w in combos:
        obj, _, _ = penalties_given_weights(inst, np.asarray(w, dtype=float))
        best = min(best, obj)
    return best


def random_instance(rng):
    n = int(rng.integers(1, 4))
    C = int(rng.integers(2, 4))
    k = int(rng.integers(1, 5))
    y = rng.integers(0, C, size=k)
    L = rng.integers(0, C, size=(k, n))
    m = rng.integers(1, 4, size=k)
    return LpInstance(n=n, n_classes=C, m=m, y=y, L=L, gamma=80.0)


def check_full_feasibility(inst, sol, tol=1e-6):
    """Direct substitution into every nominal constraint."""
    assert abs(sol.w.sum() - 100.0) <= tol
    assert sol.w.min() >= -tol and sol.w.max() <= 100 + tol
    assert sol.g.min() >= -tol and sol.f.min() >= -tol
    for i in range(inst.k):
        correct = sol.w[inst.L[i] == inst.y[i]].sum()
        for c in range(inst.n_classes):
            if c == inst.y[i]:
                continue
            diff = correct - sol.w[inst.L[i] == c].sum()
            assert sol.g[i] + diff >= inst.gamma - tol
            assert sol.f[i] + diff >= 1.0 - tol
    want = float((inst.m * (sol.g + 2 * sol.f)).sum())
    assert sol.objective == pytest.approx(want, abs=1e-6)


class TestExamples:
    def test_single_correct_classifier(self):
        inst = LpInstance(n=1, n_classes=2, m=[1], y=[0], L=[[0]], gamma=80.0)
        sol = solve(inst)
        assert sol.w.tolist() == [100.0]
        assert sol.objective == 0.0
        assert sol.g.tolist() == [0.0] and sol.f.tolist() == [0.0]

    def test_symmetric_two_classifier_instance(self):
        # e1: A right / B wrong; e2: B right / A wrong -> optimum 164 on
        # the face |w_A - w_B| <= 1
        inst = LpInstance(n=2, n_classes=2, m=[1, 1], y=[0, 0],
                          L=[[0, 1], [1, 0]], gamma=80.0)
        sol = solve(inst)
        assert sol.objective == pytest.approx(164.0, abs=1e-6)
        assert abs(sol.w[0] - sol.w[1]) <= 1.0 + 1e-9
        assert grid_oracle(inst) == pytest.approx(164.0)

    def test_dominant_classifier_takes_all(self):
        # A correct on all 3 examples, B always wrong: zero penalty at
        # w_A large enough; optimum objective 0
        inst = LpInstance(n=2, n_classes=2, m=[1, 1, 1], y=[0, 0, 0],
                          L=[[0, 1], [0, 1], [0, 1]], gamma=80.0)
        sol = solve(inst)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.w[0] >= sol.w[1]
        assert sol.w[0] - sol.w[1] >= 80.0 - 1e-6
        _, g, f = penalties_given_weights(inst, sol.w)
        assert g.max() == 0.0 and f.max() == 0.0

    def test_constraint_count(self):
        inst = LpInstance(n=3, n_classes=4, m=[1, 1], y=[0, 1],
                          L=[[0, 1, 2], [1, 1, 3]], gamma=80.0)
        assert inst.constraint_count() == 2 * 2 * 3 + 1
        inst2 = LpInstance(n=2, n_classes=2, m=[1], y=[0], L=[[0, 1]])
        assert inst2.constraint_count() == 3  # 2 per example + equality


class TestBuildInstance:
    def test_multiplicities_from_bundle(self):
        cm = CorrectnessMatrix(np.array([[0, 1], [1, 0], [0, 0]]),
                               np.array([0, 1, 1]), np.arange(3), n_classes=2)
        bundle = simple_bundle([[1.0, 1.0]], rows=np.array([0, 2]),
                               mult=np.array([4.0, 1.0]))
        inst = build_instance(bundle, cm, gamma=80.0)
        assert inst.m.tolist() == [4, 1]
        assert inst.y.tolist() == [0, 1]
        assert inst.L.tolist() == [[0, 1], [0, 0]]
        assert inst.gamma == 80.0


class TestOracleEquivalence:
    def test_random_instances_never_beat_grid_and_match_reference(self):
        # the step-1 grid bounds the optimum from above; the reference
        # simplex pins it
        rng = np.random.default_rng(123)
        for _ in range(60):
            inst = random_instance(rng)
            sol = solve(inst)
            check_full_feasibility(inst, sol)
            grid = grid_oracle(inst)
            assert sol.objective <= grid + 1e-6
            assert sol.objective == pytest.approx(reference_solve(inst)[0],
                                                  abs=1e-6)

    def test_multiplicity_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            inst = random_instance(rng)
            sol1 = solve(inst)
            scaled = LpInstance(n=inst.n, n_classes=inst.n_classes,
                                m=inst.m * 3, y=inst.y, L=inst.L,
                                gamma=inst.gamma)
            sol2 = solve(scaled)
            assert sol2.objective == pytest.approx(3 * sol1.objective, abs=1e-5)
            # the first solver's weights stay optimal for the scaled instance
            obj1_scaled, _, _ = penalties_given_weights(scaled, sol1.w)
            assert obj1_scaled == pytest.approx(sol2.objective, abs=1e-5)

    def test_all_correct_example_has_zero_penalty(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            C = int(rng.integers(2, 4))
            y = int(rng.integers(0, C))
            inst = LpInstance(n=n, n_classes=C, m=[2],
                              y=[y], L=[[y] * n], gamma=80.0)
            sol = solve(inst)
            assert sol.g.tolist() == [0.0]
            assert sol.f.tolist() == [0.0]

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng)
        s1 = solve(inst)
        s2 = solve(inst)
        assert np.array_equal(s1.w, s2.w)
        assert s1.objective == s2.objective


@st.composite
def lp_instances(draw):
    n = draw(st.integers(1, 5))
    C = draw(st.integers(2, 4))
    k = draw(st.integers(1, 40))
    label = st.integers(0, C - 1)
    y = draw(st.lists(label, min_size=k, max_size=k))
    L = draw(st.lists(st.lists(label, min_size=n, max_size=n),
                      min_size=k, max_size=k))
    m = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    return LpInstance(n=n, n_classes=C, m=m, y=y, L=L, gamma=80.0)


# fixed examples: the property tests are part of the deterministic suite
DETERMINISTIC = settings(max_examples=80, derandomize=True, deadline=None,
                         database=None)


class TestProperties:
    @DETERMINISTIC
    @given(lp_instances())
    def test_optimum_matches_reference_simplex(self, inst):
        sol = solve(inst)
        ref = reference_solve(inst)[0]
        assert abs(sol.objective - ref) <= 1e-6 * max(1.0, abs(ref))
        assert sol.w.min() >= 0.0 and sol.w.max() <= 100.0 + 1e-6
        assert sol.w.sum() == pytest.approx(100.0, abs=1e-6)
        obj, _, _ = penalties_given_weights(inst, sol.w)
        assert abs(obj - sol.objective) <= 1e-6 * max(1.0, abs(ref))

    @DETERMINISTIC
    @given(lp_instances())
    def test_merge_matches_loop_reference(self, inst):
        got = _merge_equivalent(inst)
        for have, want in zip(got, merge_equivalent(inst)):
            assert have.dtype == want.dtype
            assert np.array_equal(have, want)


class TestDumps:
    def test_instance_dump_mentions_all_rows(self):
        inst = LpInstance(n=2, n_classes=2, m=[1, 2], y=[0, 1],
                          L=[[0, 1], [1, 0]], gamma=80.0)
        text = instance_dump(inst)
        assert "gamma=80" in text
        assert text.count("m=") == 2
