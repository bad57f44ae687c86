"""LP construction, the HiGHS solve, and its oracles: the reference dense
simplex, the discrete weight grid, and scipy's public linprog."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cshc import lp
from cshc.cli import main
from cshc.data import CorrectnessMatrix
from cshc.lp import (LpInstance, _highs_model, build_instance,
                     instance_dump, penalties_given_weights, solve)
import lp_reference
from lp_reference import linprog_solve, merge_equivalent, reference_solve
from test_harness import tiny_experiment_config


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


class TestBuildInstance:
    def test_multiplicities_from_bundle(self):
        cm = CorrectnessMatrix(np.array([[0, 1], [1, 0], [0, 0]]),
                               np.array([0, 1, 1]), 2)
        inst = build_instance(np.array([0, 2]), np.array([4.0, 1.0]), cm,
                              gamma=80.0)
        assert inst.m.tolist() == [4, 1]
        assert inst.y.tolist() == [0, 1]
        assert inst.L.tolist() == [[0, 1], [0, 0]]
        assert inst.gamma == 80.0

    def test_rows_of_one_profile_merge(self):
        # rows 0 and 3 share (truth 0, labels [0, 1]), as do 1 and 4; the
        # samples keep the order of each profile's first row
        cm = CorrectnessMatrix(np.array([[0, 1], [1, 1], [0, 0], [0, 1],
                                         [1, 1]]),
                               np.array([0, 1, 1, 0, 1]), 2)
        assert cm.profile[0] == cm.profile[3] != cm.profile[2]
        inst = build_instance(np.arange(5), np.array([1.0, 2, 3, 4, 5]), cm,
                              gamma=80.0)
        assert inst.m.tolist() == [5, 7, 3]
        assert inst.y.tolist() == [0, 1, 1]
        assert inst.L.tolist() == [[0, 1], [1, 1], [0, 0]]


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


@st.composite
def member_unions(draw, widths):
    """(rows, mult, cm) as ``Forest.member_union`` hands them to
    ``build_instance``: a correctness matrix whose rows repeat a few
    distinct (truth, label row) profiles, its width drawn from
    ``widths``; an ascending set of its rows; whole multiplicities. At 3
    classes a row 40 classifiers wide has more profiles than 2^63, so no
    mixed-radix int64 key holds it."""
    n = draw(widths)
    C = draw(st.integers(2, 4))
    label = st.integers(0, C - 1)
    distinct = draw(st.lists(st.lists(label, min_size=n + 1, max_size=n + 1),
                             min_size=1, max_size=6))
    M = draw(st.integers(1, 30))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=M,
                          max_size=M))
    table = np.asarray(distinct)[picks]
    cm = CorrectnessMatrix(table[:, 1:], table[:, 0], C)
    rows = np.array(sorted(draw(st.sets(st.integers(0, M - 1), min_size=1))))
    mult = draw(st.lists(st.integers(1, 5), min_size=rows.size,
                         max_size=rows.size))
    return rows, np.asarray(mult, dtype=np.float64), cm


def raw_instance(rows, mult, cm):
    """The instance of the rows unmerged, one sample per row."""
    return LpInstance(n=cm.n_classifiers, n_classes=cm.n_classes,
                      m=np.rint(mult), y=cm.truth[rows],
                      L=cm.predicted[rows], gamma=80.0)


def assert_same_array(have, want):
    have, want = np.asarray(have), np.asarray(want)
    assert have.dtype == want.dtype
    assert np.array_equal(have, want)


class TestProperties:
    @settings(max_examples=80)
    @given(lp_instances())
    def test_optimum_matches_reference_simplex(self, inst):
        sol = solve(inst)
        ref = reference_solve(inst)[0]
        assert abs(sol.objective - ref) <= 1e-6 * max(1.0, abs(ref))
        assert sol.w.min() >= 0.0 and sol.w.max() <= 100.0 + 1e-6
        assert sol.w.sum() == pytest.approx(100.0, abs=1e-6)
        obj, _, _ = penalties_given_weights(inst, sol.w)
        assert abs(obj - sol.objective) <= 1e-6 * max(1.0, abs(ref))

    @settings(max_examples=80)
    @given(lp_instances(), st.data())
    def test_penalties_match_loop_reference(self, inst, data):
        w = np.asarray(data.draw(st.lists(
            st.floats(0.0, 100.0), min_size=inst.n, max_size=inst.n)))
        got = penalties_given_weights(inst, w)
        want = lp_reference.penalties_given_weights(inst, w)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

    @settings(max_examples=80)
    @given(member_unions(st.integers(1, 5)))
    def test_merge_matches_loop_reference(self, case):
        # build_instance merges what the solve once merged: the loop merge
        # of the raw instance, to the bit, and so the same HiGHS model
        rows, mult, cm = case
        got = build_instance(rows, mult, cm, 80.0)
        want = LpInstance(cm.n_classifiers, cm.n_classes,
                          *merge_equivalent(raw_instance(rows, mult, cm)),
                          gamma=80.0)
        for name in ("m", "y", "L"):
            assert_same_array(getattr(got, name), getattr(want, name))
        core, _ = lp.highs()
        a, b = _highs_model(got, core), _highs_model(want, core)
        for name in ("col_cost_", "col_lower_", "col_upper_", "row_lower_",
                     "row_upper_"):
            assert_same_array(getattr(a, name), getattr(b, name))
        for name in ("start_", "index_", "value_"):
            assert_same_array(getattr(a.a_matrix_, name),
                              getattr(b.a_matrix_, name))


def unique_merge(inst):
    """The row-wise np.unique(axis=0) merge, groups renumbered in order of
    first appearance. Returns (m, y, L)."""
    key = np.column_stack([inst.y, inst.L])
    _, first, inverse = np.unique(key, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    merged_m = np.zeros(order.size, dtype=np.int64)
    np.add.at(merged_m, rank[inverse.ravel()], inst.m)
    rows = first[order]
    return merged_m, inst.y[rows], inst.L[rows]


def wide_case(truth, labels, rows, mult):
    """(rows, mult, cm) over 3 classes from plain lists."""
    cm = CorrectnessMatrix(np.array(labels), np.array(truth), 3)
    return np.array(rows), np.array(mult, dtype=np.float64), cm


class TestMergeOracle:
    @settings(max_examples=100)
    @given(member_unions(st.sampled_from([1, 2, 5, 40])))
    @example(wide_case([2], [[2] * 40], [0], [2]))
    @example(wide_case([2, 2, 1, 2],
                       [[2] * 40, [2] * 39 + [1], [2] * 40, [2] * 40],
                       [0, 1, 2, 3], [1, 2, 3, 4]))
    def test_matches_unique_merge(self, case):
        rows, mult, cm = case
        got = build_instance(rows, mult, cm, 80.0)
        for name, want in zip(("m", "y", "L"),
                              unique_merge(raw_instance(rows, mult, cm))):
            assert_same_array(getattr(got, name), want)


@st.composite
def degenerate_instances(draw):
    """Edge shapes of the merged model: duplicate rows, samples that every
    classifier gets right or wrong, one classifier, two classes, and
    samples whose unvoted wrong classes need the shared row."""
    n = draw(st.integers(1, 5))
    C = draw(st.integers(2, 6))
    k = draw(st.integers(1, 12))
    label = st.integers(0, C - 1)
    y = draw(st.lists(label, min_size=k, max_size=k))
    shape = st.sampled_from(["random", "all-correct", "all-wrong", "one-vote"])
    L = []
    for i in range(k):
        kind = draw(shape)
        if kind == "all-correct":
            L.append([y[i]] * n)
        elif kind == "all-wrong":
            L.append([(y[i] + 1 + v) % C if C > 2 else 1 - y[i]
                      for v in draw(st.lists(st.integers(0, C - 2),
                                             min_size=n, max_size=n))])
        elif kind == "one-vote":  # at most one wrong class voted
            L.append([(y[i] + 1) % C] * n)
        else:
            L.append(draw(st.lists(label, min_size=n, max_size=n)))
    repeat = draw(st.integers(1, 3))  # duplicate every row
    m = draw(st.lists(st.integers(1, 5), min_size=k * repeat,
                      max_size=k * repeat))
    gamma = draw(st.sampled_from([0.5, 1.0, 50.0, 80.0]))
    return LpInstance(n=n, n_classes=C, m=m, y=y * repeat, L=L * repeat,
                      gamma=gamma)


def assert_same_solution(inst):
    got, want = solve(inst), linprog_solve(inst)
    assert np.array_equal(got.w, want.w)
    assert np.array_equal(got.g, want.g)
    assert np.array_equal(got.f, want.f)
    assert got.objective == want.objective


class TestLinprogOracle:
    """The direct HiGHS call must return public linprog's vertex bit for
    bit: same matrix, same options, same solver."""

    @settings(max_examples=80)
    @given(lp_instances())
    def test_matches_linprog(self, inst):
        assert_same_solution(inst)

    @settings(max_examples=80)
    @given(degenerate_instances())
    def test_matches_linprog_on_degenerate_shapes(self, inst):
        assert_same_solution(inst)

    def test_matches_linprog_on_regions_sized_instance(self):
        # about as many raw rows as one regions query's leaves return
        rng = np.random.default_rng(31)
        k, n, C = 1700, 3, 3
        y = rng.integers(0, C, size=k)
        right = rng.random((k, n)) < [0.9, 0.6, 0.3]
        L = np.where(right, y[:, None], (y[:, None] + 1) % C)
        inst = LpInstance(n=n, n_classes=C, m=rng.integers(1, 4, size=k),
                          y=y, L=L, gamma=80.0)
        assert_same_solution(inst)


class TestSolverFailure:
    def test_non_optimal_status_raises_with_dump(self, monkeypatch):
        core, _ = lp.highs()
        options = core.HighsOptions()
        options.output_flag = False
        options.simplex_iteration_limit = 0
        monkeypatch.setattr(lp, "_OPTIONS", options)
        inst = LpInstance(n=2, n_classes=2, m=[1, 1], y=[0, 0],
                          L=[[0, 1], [1, 0]], gamma=80.0)
        with pytest.raises(lp.LpSolverError) as info:
            solve(inst)
        assert "HiGHS: Iteration limit reached" in str(info.value)
        assert instance_dump(inst) in str(info.value)


class TestDumps:
    def test_instance_dump_mentions_all_rows(self):
        inst = LpInstance(n=2, n_classes=2, m=[1, 2], y=[0, 1],
                          L=[[0, 1], [1, 0]], gamma=80.0)
        text = instance_dump(inst)
        assert "gamma=80" in text
        assert text.count("m=") == 2


# prints whether the binding is loaded, then every other scipy.optimize
# module that is
STRAY_OPTIMIZE = """
import sys
core = "scipy.optimize._highspy._core"
print(core in sys.modules, sorted(
    m for m in sys.modules
    if (m == "scipy.optimize" or m.startswith("scipy.optimize."))
    and m != core and not m.startswith(core + ".")))
"""


def run_fresh(code, *args):
    """stdout of `code` run in a fresh interpreter, with the program and
    the test helpers importable, so that sys.modules starts clean."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lp.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])))
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestLoader:
    """`lp.highs` loads scipy's HiGHS binding from its file, without the
    scipy.optimize package around it."""

    def test_solve_imports_no_scipy_optimize(self):
        out = run_fresh(textwrap.dedent("""
            from cshc.lp import LpInstance, solve
            solve(LpInstance(n=2, n_classes=2, m=[1, 2], y=[0, 1],
                             L=[[0, 1], [1, 1]], gamma=80.0))
            """) + STRAY_OPTIMIZE)
        assert out.split("\n")[-2] == "True []", out

    def test_select_lp_imports_no_scipy_optimize(self, tmp_path):
        data = tiny_experiment_config(tmp_path).datasets[0][1]
        bundle_dir = str(tmp_path / "bundle")
        assert main(["train", "--data", data, "--label", "label",
                     "--out", bundle_dir, "--seed", "5"]) == 0
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n2.0,-0.2\n0.0,0.0\n")
        out_file = tmp_path / "sel.csv"
        out = run_fresh(textwrap.dedent("""
            import sys
            from cshc import cli
            assert cli.main(["select", "--model", sys.argv[1], "--input",
                             sys.argv[2], "--output", sys.argv[3],
                             "--method", "lp"]) == 0
            """) + STRAY_OPTIMIZE, bundle_dir, str(query), str(out_file))
        assert out.split("\n")[-2] == "True []", out
        assert len(out_file.read_text().splitlines()) == 4

    def test_scipy_optimize_reuses_the_loaded_binding(self):
        """A later `import scipy.optimize` finds the binding the LP loaded,
        and linprog solves through it, not a second copy, to the same
        bits."""
        out = run_fresh("""
            import numpy as np
            from cshc import lp
            rng = np.random.default_rng(31)
            k, n, C = 200, 3, 3
            y = rng.integers(0, C, size=k)
            right = rng.random((k, n)) < [0.9, 0.6, 0.3]
            L = np.where(right, y[:, None], (y[:, None] + 1) % C)
            inst = lp.LpInstance(n=n, n_classes=C, y=y, L=L, gamma=80.0,
                                 m=rng.integers(1, 4, size=k))
            got = lp.solve(inst)
            import scipy.optimize
            from scipy.optimize._highspy import _core
            from lp_reference import linprog_solve
            want = linprog_solve(inst)
            from scipy.optimize._highspy import _highs_wrapper
            print(_core is lp.highs()[0], _highs_wrapper._h is _core)
            print(all(np.array_equal(a, b) for a, b in
                      ((got.w, want.w), (got.g, want.g), (got.f, want.f))),
                  got.objective == want.objective)
            """)
        assert out.split("\n")[-3:] == ["True True", "True True", ""], out

    def test_binding_already_imported_is_reused(self):
        out = run_fresh("""
            import scipy.optimize
            from scipy.optimize._highspy import _core
            from cshc import lp
            print(lp.highs()[0] is _core)
            """)
        assert out.split("\n")[-2] == "True", out

    def test_concurrent_first_loads_share_one_module(self):
        out = run_fresh("""
            import sys, threading
            from cshc import lp
            barrier = threading.Barrier(8)
            got = []
            def load():
                barrier.wait()
                got.append(lp.highs())
            threads = [threading.Thread(target=load) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            print(len(got), len({id(core) for core, _ in got}),
                  len({id(options) for _, options in got}),
                  got[0][0] is sys.modules["scipy.optimize._highspy._core"])
            """)
        assert out.split("\n")[-2] == "8 1 1 True", out

    def test_missing_binding_names_the_directory(self, tmp_path):
        root = tmp_path / "scipy"
        (root / "optimize" / "_highspy").mkdir(parents=True)
        out = run_fresh("""
            import importlib.util, sys, types
            from cshc import lp
            real = importlib.util.find_spec
            fake = types.SimpleNamespace(
                submodule_search_locations=[sys.argv[1]])
            importlib.util.find_spec = (
                lambda name, package=None:
                fake if name == "scipy" else real(name, package))
            try:
                lp.highs()
            except ImportError as exc:
                print(exc)
            """, str(root))
        assert str(root) in out, out

