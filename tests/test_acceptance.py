"""Acceptance suite: one test (or test group) per criterion.

Each test registers a PASS/FAIL line printed in the terminal summary.
Sub-assertions that are arithmetically impossible from rounded table
inputs are implemented exactly as specified and marked strict-xfail;
see notes/decisions.md in the repository root's sibling notes tree.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import record_acceptance, region_benchmark_config
from cshc import kernels
from cshc.baselines import Region, aposteriori, apriori, lca, mcb, ola
from cshc.data import CorrectnessMatrix
from cshc.harness import (average_ranks, mgi, run_experiment, wins_losses,
                          write_trace_csv)
from cshc.lp import LpInstance, solve
from cshc.rng import substream
from cshc.selection import select_lpr, select_rr
from test_baselines import cm_with_proba
from test_forest import simple_bundle
from test_kernels import brute_best_split

# ---------------------------------------------------------------------------
# printed accuracy tables (rounded to 0.1 as published)
# ---------------------------------------------------------------------------

# columns: CSHC, RR, LP, LPR, Oracle
TABLE2 = np.array([
    [90.3, 90.3, 90.3, 90.3, 93.2],   # balance-scale
    [89.7, 89.5, 89.4, 89.5, 96.5],   # bank-marketing
    [74.4, 75.4, 75.8, 75.8, 93.7],   # Bioresponse
    [97.4, 97.0, 97.4, 97.0, 98.7],   # breast-w
    [52.2, 51.1, 49.9, 51.3, 85.2],   # cmc
    [86.6, 88.0, 89.1, 88.0, 96.6],   # cnae-9
    [86.0, 89.0, 88.6, 88.6, 95.6],   # credit-approval
    [75.2, 74.5, 74.5, 75.2, 94.8],   # credit-g
    [74.8, 76.4, 74.8, 75.2, 89.8],   # diabetes
    [93.0, 90.1, 93.1, 93.1, 99.9],   # eeg-eye-state
    [58.8, 62.6, 60.5, 61.7, 86.4],   # eucalyptus
    [89.3, 88.6, 89.3, 89.3, 98.0],   # gina_agnostic
    [81.6, 80.6, 80.6, 80.6, 89.8],   # heart-h
    [51.5, 52.5, 52.2, 53.8, 97.2],   # hill-valley
    [70.5, 71.0, 72.5, 72.5, 99.0],   # ilpd
    [94.8, 94.6, 94.9, 94.9, 98.6],   # isolet
    [84.9, 86.1, 85.2, 85.1, 94.0],   # kc1
    [80.3, 83.8, 81.5, 83.2, 91.9],   # kc2
    [98.4, 98.0, 98.5, 98.4, 100.0],  # kr-vs-kp
    [93.0, 93.3, 93.4, 93.4, 97.5],   # letter
    [95.8, 96.4, 96.5, 96.2, 98.8],   # mfeat-factors
    [79.5, 80.6, 80.9, 80.3, 93.9],   # mfeat-fourier
    [92.4, 90.1, 92.2, 92.3, 98.3],   # mozilla4
    [100.0, 100.0, 100.0, 100.0, 100.0],  # musk
    [95.5, 95.7, 95.8, 95.7, 99.2],   # nomao
    [98.2, 98.2, 98.3, 98.3, 99.6],   # optdigits
    [92.6, 93.1, 93.1, 92.7, 98.6],   # ozone-level-8hr
    [95.6, 95.6, 95.4, 95.6, 97.8],   # pc1
    [90.1, 89.5, 89.0, 89.5, 95.3],   # pc3
    [99.3, 99.2, 99.3, 99.3, 99.7],   # pendigits
    [84.4, 86.0, 85.2, 85.4, 97.8],   # phoneme
    [84.2, 84.2, 85.7, 85.1, 96.6],   # qsar-biodeg
    [95.5, 95.5, 84.5, 96.0, 99.5],   # scene
    [93.7, 94.1, 95.7, 94.1, 99.3],   # spambase
    [85.1, 85.4, 94.1, 85.4, 97.0],   # SpeedDating
    [91.6, 93.3, 93.2, 93.0, 98.5],   # splice
    [85.8, 86.1, 86.8, 87.1, 97.5],   # tic-tac-toe
    [73.6, 77.1, 76.8, 77.1, 92.1],   # vehicle
    [83.5, 82.6, 85.6, 84.4, 94.5],   # vowel
    [97.9, 96.3, 97.9, 98.4, 99.5],   # wdbc
])

# columns: APR, MCB, OLA, MV, MD, CSHC, KU, LPR
TABLE3 = np.array([
    [87.0, 86.0, 88.9, 89.9, 87.9, 90.3, 89.4, 90.3],
    [88.6, 88.8, 89.0, 89.2, 89.2, 89.7, 89.5, 89.5],
    [72.9, 73.4, 72.3, 75.1, 72.2, 74.4, 75.1, 75.8],
    [95.2, 95.2, 95.7, 96.5, 95.7, 97.4, 96.1, 97.0],
    [47.2, 49.1, 52.8, 49.3, 48.3, 52.2, 52.4, 51.3],
    [82.1, 84.6, 85.7, 88.5, 88.2, 86.6, 89.1, 88.0],
    [85.5, 85.1, 87.3, 88.6, 87.3, 86.0, 89.5, 88.6],
    [73.3, 73.9, 76.7, 74.8, 74.2, 75.2, 77.0, 75.2],
    [72.4, 73.2, 73.6, 76.8, 75.6, 74.8, 76.8, 75.2],
    [91.8, 92.7, 92.1, 87.5, 92.3, 93.0, 92.5, 93.1],
    [56.8, 56.8, 61.3, 58.8, 61.3, 58.8, 63.4, 61.7],
    [85.4, 83.8, 86.7, 88.2, 88.6, 89.3, 88.1, 89.3],
    [82.7, 81.6, 82.7, 81.6, 81.6, 81.6, 80.6, 80.6],
    [50.0, 49.8, 47.8, 53.5, 51.2, 51.5, 49.8, 53.8],
    [69.4, 66.8, 68.4, 72.5, 63.7, 70.5, 71.5, 72.5],
    [89.0, 91.1, 93.1, 94.1, 94.6, 94.8, 94.5, 94.9],
    [86.5, 86.1, 85.5, 86.2, 85.8, 84.9, 86.9, 85.1],
    [76.9, 78.6, 79.8, 85.5, 82.1, 80.3, 82.7, 83.2],
    [97.9, 97.6, 97.7, 97.6, 98.4, 98.4, 98.2, 98.4],
    [91.8, 91.8, 92.2, 90.9, 92.5, 93.0, 93.4, 93.4],
    [94.7, 94.5, 95.5, 95.6, 96.5, 95.8, 96.4, 96.2],
    [77.7, 78.5, 78.5, 81.2, 81.4, 79.5, 80.2, 80.3],
    [90.9, 90.9, 91.4, 88.5, 91.8, 92.4, 88.8, 92.3],
    [99.4, 99.5, 99.9, 99.7, 100.0, 100.0, 99.8, 100.0],
    [95.4, 95.3, 95.5, 95.5, 95.8, 95.5, 95.8, 95.7],
    [96.5, 96.3, 96.7, 97.9, 98.3, 98.2, 97.9, 98.3],
    [92.2, 93.3, 93.5, 93.1, 93.4, 92.6, 93.2, 92.7],
    [93.7, 94.5, 94.3, 95.1, 94.3, 95.6, 95.1, 95.6],
    [88.2, 87.6, 88.6, 89.1, 89.0, 90.1, 90.1, 89.5],
    [98.5, 98.4, 97.8, 98.6, 99.2, 99.3, 99.0, 99.3],
    [86.5, 86.5, 87.0, 84.8, 86.7, 84.4, 86.2, 85.4],
    [82.5, 83.4, 83.4, 83.4, 85.7, 84.2, 84.8, 85.1],
    [93.2, 94.0, 95.7, 95.2, 96.6, 95.5, 95.3, 96.0],
    [92.2, 93.0, 93.3, 94.1, 93.7, 93.7, 93.7, 94.1],
    [83.6, 83.8, 84.5, 85.0, 83.8, 85.1, 85.2, 85.4],
    [89.9, 90.3, 91.4, 92.7, 93.3, 91.6, 93.4, 93.0],
    [84.9, 85.2, 86.1, 81.1, 83.9, 85.8, 81.4, 87.1],
    [71.4, 72.1, 75.0, 75.0, 74.6, 73.6, 76.8, 77.1],
    [87.5, 84.4, 86.2, 80.4, 90.2, 83.5, 82.9, 84.4],
    [95.2, 95.2, 97.3, 96.3, 97.9, 97.9, 97.9, 98.4],
])


# ---------------------------------------------------------------------------
# criterion 1: Table 2 metric reproduction
# ---------------------------------------------------------------------------

class TestCriterion1:
    lpr = TABLE2[:, 3]

    def test_cshc_wins_losses_exact(self):
        w, l, t = wins_losses(self.lpr, TABLE2[:, 0])
        ok = (l, w) == (27, 6)
        record_acceptance("1: Table 2 CSHC wins/losses", "PASS" if ok else "FAIL")
        assert (l, w) == (27, 6)

    @pytest.mark.xfail(strict=True, reason=(
        "published RR/LP wins-losses rows were computed before table "
        "rounding; 12 printed ties per column make (20,11)/(16,14) "
        "unreachable from rounded inputs (rounded data gives 18/10 and "
        "15/13)"))
    def test_rr_lp_wins_losses_as_published(self):
        record_acceptance("1: Table 2 RR/LP wins/losses",
                          "FAIL (expected: rounding ties, see ledger)")
        w_rr, l_rr, _ = wins_losses(self.lpr, TABLE2[:, 1])
        w_lp, l_lp, _ = wins_losses(self.lpr, TABLE2[:, 2])
        assert (l_rr, w_rr) == (20, 11)
        assert (l_lp, w_lp) == (16, 14)

    def test_mgi_within_tolerance(self):
        devs = []
        for col, printed in ((0, 0.8), (1, 0.3), (2, 0.2)):
            devs.append(abs(mgi(self.lpr, TABLE2[:, col]) - printed))
        ok = max(devs) <= 0.05
        record_acceptance("1: Table 2 MGI (0.8/0.3/0.2 +-0.05)",
                          "PASS" if ok else "FAIL",
                          "max dev %.4f" % max(devs))
        assert max(devs) <= 0.05

    def test_oracle_mgi(self):
        got = mgi(self.lpr, TABLE2[:, 4])
        ok = abs(got - (-10.9)) <= 0.1
        record_acceptance("1: Table 2 Oracle MGI (-10.9 +-0.1)",
                          "PASS" if ok else "FAIL", "%.4f" % got)
        assert got == pytest.approx(-10.9, abs=0.1)


# ---------------------------------------------------------------------------
# criterion 2: Table 3 cross-check
# ---------------------------------------------------------------------------

class TestCriterion2:
    lpr = TABLE3[:, 7]
    printed_losses = {"apr": 36, "mcb": 35, "ola": 33, "mv": 33, "md": 24,
                      "cshc": 27, "ku": 26}
    printed_wins = {"apr": 4, "mcb": 4, "ola": 7, "mv": 7, "md": 14,
                    "cshc": 6, "ku": 13}
    printed_mgi = [2.8, 2.6, 1.3, 1.1, 1.0, 0.8, 0.4, 0.0]
    printed_rank = [2.3, 2.6, 4.1, 4.6, 5.2, 5.3, 5.6, 6.4]
    cols = {"apr": 0, "mcb": 1, "ola": 2, "mv": 3, "md": 4, "cshc": 5,
            "ku": 6}

    def test_wins_losses_tie_free_columns(self):
        ok = True
        for name in ("apr", "mcb", "ola", "cshc"):
            w, l, _ = wins_losses(self.lpr, TABLE3[:, self.cols[name]])
            ok &= (l, w) == (self.printed_losses[name], self.printed_wins[name])
        record_acceptance("2: Table 3 wins/losses (APR/MCB/OLA/CSHC)",
                          "PASS" if ok else "FAIL")
        assert ok

    @pytest.mark.xfail(strict=True, reason=(
        "MV/MD/KU columns contain ties created by rounding; the published "
        "rows (33/7, 24/14, 26/13) came from full-precision data and "
        "rounded inputs give 30/7, 24/13, 24/13"))
    def test_wins_losses_rounded_tie_columns_as_published(self):
        record_acceptance("2: Table 3 wins/losses (MV/MD/KU)",
                          "FAIL (expected: rounding ties, see ledger)")
        for name in ("mv", "md", "ku"):
            w, l, _ = wins_losses(self.lpr, TABLE3[:, self.cols[name]])
            assert (l, w) == (self.printed_losses[name], self.printed_wins[name])

    def test_mgi_row(self):
        devs = [abs(mgi(self.lpr, TABLE3[:, j]) - self.printed_mgi[j])
                for j in range(8)]
        ok = max(devs) <= 0.05
        record_acceptance("2: Table 3 MGI row (+-0.05)",
                          "PASS" if ok else "FAIL", "max dev %.4f" % max(devs))
        assert max(devs) <= 0.05

    def test_average_rank_row_except_mv(self):
        ranks = average_ranks(TABLE3.T)
        devs = [abs(ranks[j] - self.printed_rank[j])
                for j in range(8) if j != self.cols["mv"]]
        ok = max(devs) <= 0.1
        record_acceptance("2: Table 3 average ranks (non-MV, +-0.1)",
                          "PASS" if ok else "FAIL", "max dev %.4f" % max(devs))
        assert max(devs) <= 0.1

    @pytest.mark.xfail(strict=True, reason=(
        "MV's printed mean rank 4.6 is off by 0.125 when recomputed from "
        "rounded accuracies (rounding-induced rank ties)"))
    def test_average_rank_mv_as_published(self):
        record_acceptance("2: Table 3 average rank (MV)",
                          "FAIL (expected: rounding ties, see ledger)")
        ranks = average_ranks(TABLE3.T)
        assert abs(ranks[self.cols["mv"]] - 4.6) <= 0.1


# ---------------------------------------------------------------------------
# criterion 3a: LP oracle equivalence
# ---------------------------------------------------------------------------

def _grid_points(n):
    if n == 1:
        return np.array([[100.0]])
    if n == 2:
        a = np.arange(101, dtype=float)
        return np.column_stack([a, 100.0 - a])
    rows = []
    for a in range(101):
        b = np.arange(101 - a, dtype=float)
        rows.append(np.column_stack([np.full(b.size, float(a)), b,
                                     100.0 - a - b]))
    return np.vstack(rows)


def _grid_minimum(inst, W):
    """Closed-form penalties evaluated on every grid point; independent
    of any LP solver."""
    total = np.zeros(W.shape[0])
    for i in range(inst.k):
        corr = W @ (inst.L[i] == inst.y[i]).astype(float)
        worst = np.full(W.shape[0], -np.inf)
        unvoted = False
        for c in range(inst.n_classes):
            if c == inst.y[i]:
                continue
            mask = inst.L[i] == c
            if mask.any():
                worst = np.maximum(worst, W @ mask.astype(float))
            else:
                unvoted = True
        if unvoted:
            worst = np.maximum(worst, 0.0)
        margin = corr - worst
        total += inst.m[i] * (np.maximum(0.0, inst.gamma - margin)
                              + 2.0 * np.maximum(0.0, 1.0 - margin))
    return float(total.min())


def _random_instances(count, seed=20240):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        C = int(rng.integers(2, 4))
        k = int(rng.integers(1, 5))
        out.append(LpInstance(n=n, n_classes=C,
                              m=rng.integers(1, 4, size=k),
                              y=rng.integers(0, C, size=k),
                              L=rng.integers(0, C, size=(k, n)),
                              gamma=80.0))
    return out


class TestCriterion3a:
    def test_solver_never_beats_oracle_and_is_feasible(self):
        t0 = time.perf_counter()
        grids = {n: _grid_points(n) for n in (1, 2, 3)}
        worst_gap = 0.0
        for inst in _random_instances(200):
            sol = solve(inst)
            grid = _grid_minimum(inst, grids[inst.n])
            assert sol.objective <= grid + 1e-6
            worst_gap = max(worst_gap, grid - sol.objective)
            # feasibility residuals by direct substitution
            assert abs(sol.w.sum() - 100.0) <= 1e-6
            assert sol.w.min() >= -1e-6
            for i in range(inst.k):
                corr = sol.w[inst.L[i] == inst.y[i]].sum()
                for c in range(inst.n_classes):
                    if c == inst.y[i]:
                        continue
                    diff = corr - sol.w[inst.L[i] == c].sum()
                    assert sol.g[i] + diff >= inst.gamma - 1e-6
                    assert sol.f[i] + diff >= 1.0 - 1e-6
        elapsed = time.perf_counter() - t0
        ok = elapsed < 30.0
        record_acceptance("3a: LP oracle bound + feasibility (<30s)",
                          "PASS" if ok else "FAIL",
                          "%.1fs, worst grid gap %.2f" % (elapsed, worst_gap))
        assert elapsed < 30.0

    @pytest.mark.xfail(strict=True, reason=(
        "step-1 grid discretization error exceeds 0.5 whenever the LP "
        "optimum sits at a fractional vertex (measured gaps up to 6); the "
        "solver itself is exact, as the reference-simplex cross-check in "
        "test_lp.py shows"))
    def test_solver_within_half_of_grid_as_specified(self):
        record_acceptance("3a: LP within 0.5 of step-1 grid",
                          "FAIL (expected: discretization bound, see ledger)")
        grids = {n: _grid_points(n) for n in (1, 2, 3)}
        for inst in _random_instances(200):
            sol = solve(inst)
            assert sol.objective >= _grid_minimum(inst, grids[inst.n]) - 0.5


# ---------------------------------------------------------------------------
# criterion 3b: split-gain oracle
# ---------------------------------------------------------------------------

class TestCriterion3b:
    def test_500_random_clusters_match_exhaustive_enumeration(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(31337)
        for _ in range(500):
            S = int(rng.integers(2, 13))
            F = int(rng.integers(1, 4))
            n = int(rng.integers(2, 5))
            vals = np.round(rng.uniform(0, 4, size=(S, F)) * 2) / 2
            mult = rng.integers(1, 4, size=S).astype(float)
            wc = rng.integers(0, 2, size=(S, n)).astype(float) * mult[:, None]
            got = kernels.best_split(np.ascontiguousarray(vals),
                                     np.ascontiguousarray(wc), mult, 2.0)
            want = brute_best_split(vals, wc, mult, 2.0)
            if want[1] < 0:
                assert got[1] == -1
            else:
                assert got[1] == want[1]
                assert got[2] == want[2]
                assert got[0] == pytest.approx(want[0], abs=1e-12)
        elapsed = time.perf_counter() - t0
        ok = elapsed < 10.0
        record_acceptance("3b: split oracle, 500 clusters (<10s)",
                          "PASS" if ok else "FAIL", "%.1fs" % elapsed)
        assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 3c: synthetic region benchmark
# ---------------------------------------------------------------------------

class TestCriterion3c:
    def test_generator_properties_hold(self, region_result):
        _, _, info, _ = region_result
        preds, truth, region = info["preds"], info["truth"], info["region"]
        for a in range(3):
            inside = region == a
            acc_in = (preds[inside, a] == truth[inside]).mean()
            acc_out = (preds[~inside, a] == truth[~inside]).mean()
            assert acc_in >= 0.98
            assert acc_out <= 0.40
        record_acceptance("3c: generator regions (>=98% in, <=40% out)", "PASS")

    def test_selection_beats_static(self, region_result):
        cfg, result, info, elapsed = region_result
        oracle = result.oracle["regions"]
        static_best = max(v for (d, _), v in result.static.items()
                          if d == "regions")
        accs = {m: result.cells[("regions", m)].accuracy
                for m in ("cshc", "rr", "lp", "lpr")}
        ok = (oracle >= 98.0 and static_best <= 70.0
              and all(a >= 90.0 for a in accs.values()) and elapsed < 60.0)
        record_acceptance(
            "3c: region benchmark (<60s)", "PASS" if ok else "FAIL",
            "oracle %.1f static %.1f min-variant %.1f in %.1fs"
            % (oracle, static_best, min(accs.values()), elapsed))
        assert oracle >= 98.0
        assert static_best <= 70.0
        for m, a in accs.items():
            assert a >= 90.0, m
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 3d: perfect-classifier absorption
# ---------------------------------------------------------------------------

def _perfect_pool_files(tmpdir, seed=77, rows=900):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 2))
    truth = rng.integers(0, 3, size=rows)
    enc = {}
    for t in truth:
        enc.setdefault(int(t), len(enc))
    data = os.path.join(tmpdir, "abs.csv")
    with open(data, "w") as fh:
        fh.write("x0,x1,label\n")
        for i in range(rows):
            fh.write("%f,%f,c%d\n" % (x[i, 0], x[i, 1], truth[i]))
    paths = []
    for a, (p_correct, shift) in enumerate([(1.0, 1), (0.5, 1), (0.5, 2)]):
        path = os.path.join(tmpdir, "clf%d.csv" % a)
        with open(path, "w") as fh:
            fh.write("sample_index,predicted_class\n")
            for i in range(rows):
                t = int(truth[i])
                lab = t if rng.random() < p_correct else (t + shift) % 3
                fh.write("%d,%d\n" % (i, enc[lab]))
        paths.append(path)
    return data, paths


class TestCriterion3d:
    def test_every_variant_absorbs_a_perfect_classifier(self, tmp_path):
        data, paths = _perfect_pool_files(str(tmp_path))
        cfg = region_benchmark_config(data, paths, seed=3,
                                      methods=["cshc", "rr", "lp", "lpr"])
        cfg.reference = "lpr"
        cfg.datasets = [("abs", data, "label")]
        result = run_experiment(cfg, keep_preps=True)
        assert not result.errors
        prep = result.preps["abs"]
        # fixture premise: classifier 0 is perfect on validation and test
        assert prep.cm.correct[:, 0].all()
        assert prep.test_cm.correct[:, 0].all()
        accs = {m: result.cells[("abs", m)].accuracy
                for m in ("cshc", "rr", "lp", "lpr")}
        ok = all(a == 100.0 for a in accs.values())
        record_acceptance("3d: perfect-classifier absorption",
                          "PASS" if ok else "FAIL", str(accs))
        for m, a in accs.items():
            assert a == 100.0, m


# ---------------------------------------------------------------------------
# criterion 3e: byte-identical compare runs
# ---------------------------------------------------------------------------

class TestCriterion3e:
    def test_compare_twice_is_byte_identical(self, tmp_path):
        from test_harness import tiny_experiment_config

        paths = []
        for i in range(3):
            c = tiny_experiment_config(tmp_path, seed=40 + i)
            src = c.datasets[0][1]
            dst = tmp_path / ("ds%d.csv" % i)
            os.rename(src, dst)
            paths.append(str(dst))
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[experiment]\nseed = 99\nlabel_column = label\n"
            "methods = cshc, rr, lp, lpr, mv\nreference = lpr\n"
            "[cshc]\nn_trees = 8\n[data]\n"
            + "".join("ds%d = %s\n" % (i, p) for i, p in enumerate(paths)))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / ("out_" + run)
            r = subprocess.run(
                [sys.executable, "-m", "cshc.cli", "compare", "--config",
                 str(ini), "--out", str(out)],
                capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b and files_a
        identical = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                        for f in files_a)
        record_acceptance("3e: compare is byte-deterministic",
                          "PASS" if identical else "FAIL",
                          "%d files" % len(files_a))
        assert identical


# ---------------------------------------------------------------------------
# criterion 3f: degenerate equivalences, 200 queries each
# ---------------------------------------------------------------------------

class TestCriterion3f:
    def _random_cm(self, rng, M=40, n=4, C=3):
        pred = rng.integers(0, C, size=(M, n))
        truth = rng.integers(0, C, size=M)
        return cm_with_proba(pred, truth, C)

    def test_apriori_equals_ola_one_hot(self):
        rng = np.random.default_rng(60)
        for _ in range(200):
            cm = self._random_cm(rng)
            region = Region(rng.permutation(40)[:7], 7)
            assert np.allclose(apriori(region, cm), ola(region, cm))
        record_acceptance("3f: apriori == ola (one-hot, 200 queries)", "PASS")

    def test_aposteriori_equals_lca_one_hot(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            cm = self._random_cm(rng)
            region = Region(rng.permutation(40)[:7], 7)
            labels = rng.integers(0, 3, size=4)
            assert np.allclose(aposteriori(region, cm, labels),
                               lca(region, cm, labels))
        record_acceptance("3f: aposteriori == lca (one-hot, 200 queries)",
                          "PASS")

    def test_mcb_zero_threshold_equals_ola(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            cm = self._random_cm(rng)
            region = Region(rng.permutation(40)[:7], 7)
            labels = rng.integers(0, 3, size=4)
            assert np.allclose(mcb(region, cm, labels, 0.0), ola(region, cm))
        record_acceptance("3f: mcb(0) == ola (200 queries)", "PASS")

    def test_lpr_rho_one_equals_rr(self):
        rng = np.random.default_rng(63)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            C = int(rng.integers(2, 4))
            counts = rng.integers(0, 5, size=(4, n)).astype(float)
            k = int(rng.integers(1, 4))
            cm = CorrectnessMatrix(rng.integers(0, C, size=(k, n)),
                                   rng.integers(0, C, size=k),
                                   np.arange(k), n_classes=C)
            bundle = simple_bundle(counts, rows=np.arange(k), mult=np.ones(k))
            labels = rng.integers(0, C, size=n)
            rr = select_rr(bundle, labels, C, substream(5, 1, trial))
            lpr = select_lpr(bundle, cm, labels, 1.0, 80.0, C, None,
                             substream(5, 1, trial), substream(5, 2, trial))
            assert (lpr.chosen_classifier, lpr.predicted_class) \
                == (rr.chosen_classifier, rr.predicted_class)
        record_acceptance("3f: lpr(rho=1) == rr (200 queries)", "PASS")


# ---------------------------------------------------------------------------
# criterion 3g: recourse accounting and exit coverage
# ---------------------------------------------------------------------------

class TestCriterion3g:
    def test_recourse_rate_matches_trace_exactly(self, region_result, tmp_path):
        cfg, result, _, _ = region_result
        cell = result.cells[("regions", "lpr")]
        prep = result.preps["regions"]
        path = tmp_path / "trace.csv"
        write_trace_csv(prep, cell, str(path))
        lines = path.read_text().strip().splitlines()[1:]
        invoked = sum(int(line.rsplit(",", 1)[1]) for line in lines)
        assert len(lines) == prep.test_ds.n_samples
        ok = cell.recourse_rate == invoked / len(lines)
        record_acceptance("3g: recourse rate == trace count",
                          "PASS" if ok else "FAIL",
                          "rate %.4f" % cell.recourse_rate)
        assert cell.recourse_rate == invoked / len(lines)

    def test_every_exit_point_exercised(self, region_result):
        cfg, result, _, _ = region_result
        seen = {o.method_used
                for o in result.cells[("regions", "lpr")].outcomes}
        # the crafted chain fixtures cover the deep exits; each LP in them
        # has a unique optimum or one whose whole optimal face takes the
        # same exit, so the exit does not hang on the vertex a solver picks
        fixtures = []
        cm1 = CorrectnessMatrix(np.array([[0, 1, 1], [0, 1, 0]]),
                                np.array([0, 1]), np.arange(2), n_classes=2)
        b1 = simple_bundle([[3.0, 2.0, 1.0]], rows=np.array([0, 1]),
                           mult=np.array([2.0, 1.0]))
        fixtures.append((b1, cm1, np.array([1, 0, 0]), 0.1, 2,
                         [0.9, 0.5, 0.4]))
        cm2 = CorrectnessMatrix(np.array([[0, 1, 1, 2], [0, 2, 2, 1],
                                          [1, 0, 0, 2]]),
                                np.array([2, 0, 2]), np.arange(3), n_classes=3)
        b2 = simple_bundle([[5.0, 3.0, 3.0, 0.0]], rows=np.arange(3),
                           mult=np.array([3.0, 1.0, 3.0]), dominant=2)
        fixtures.append((b2, cm2, np.array([0, 1, 1, 2]), 0.05, 3,
                         [0.9, 0.2, 0.2, 0.1]))
        cm3 = CorrectnessMatrix(np.array([[0, 1, 1, 2], [0, 2, 2, 1],
                                          [1, 0, 0, 2]]),
                                np.array([2, 0, 2]), np.arange(3), n_classes=4)
        b3 = simple_bundle([[5.0, 3.0, 3.0, 0.0]], rows=np.arange(3),
                           mult=np.array([3.0, 1.0, 3.0]), dominant=3)
        fixtures.append((b3, cm3, np.array([0, 1, 1, 2]), 0.05, 4,
                         [0.9, 0.2, 0.2, 0.1]))
        cm4 = CorrectnessMatrix(np.array([[0, 1], [0, 1]]),
                                np.array([0, 1]), np.arange(2), n_classes=2)
        b4 = simple_bundle([[2.0, 1.0]], rows=np.arange(2),
                           mult=np.array([2.0, 1.0]))
        fixtures.append((b4, cm4, np.array([0, 1]), 0.01, 2, None))
        for i, (bundle, cm, labels, rho, C, val_acc) in enumerate(fixtures):
            out = select_lpr(bundle, cm, labels, rho, 80.0, C, val_acc,
                             substream(6, 1, i), substream(6, 2, i))
            seen.add(out.method_used)
        want = {"rr", "lp", "lpr-agree", "lpr-cshc-match", "lpr-dominant",
                "lpr-fallback"}
        ok = want <= seen
        record_acceptance("3g: all recourse exits exercised",
                          "PASS" if ok else "FAIL", ",".join(sorted(seen)))
        assert want <= seen
