"""Metrics, experiment orchestration, and report/export behaviour."""

import csv
import dataclasses
import math
import threading
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cshc import baselines as bl
from cshc import classifiers as clf
from cshc import selection as sel
from cshc.cli import _warn
from cshc.classifiers import ExternalPredictions, TrainedClassifier
from cshc.config import ALL_METHODS, ExperimentConfig
from cshc.data import CorrectnessMatrix, load_csv
from cshc.forest import query_batch
from cshc.harness import (_BASELINES, SELECTION_METHODS, average_ranks,
                          export_viz, load_bundle, mgi, oracle_accuracy,
                          paired_sign_ttest, pca_projection, prepare_dataset,
                          run_experiment, save_bundle, select_rows,
                          wins_losses, write_results_csv)


def test_every_method_has_one_evaluator():
    # a method config accepts but evaluate_method cannot run would fail
    # only at run time, as "unknown method"
    assert ALL_METHODS == SELECTION_METHODS + tuple(_BASELINES) + ("mv",)


class TestMgi:
    def test_identical_vectors(self):
        assert mgi([90.0, 80.0], [90.0, 80.0]) == 0.0

    def test_double_everywhere(self):
        assert mgi([100.0, 100.0], [50.0, 50.0]) == pytest.approx(100.0)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            mgi([100.0, 0.0], [50.0, 50.0])

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(40, 100, size=12)
            b = rng.uniform(40, 100, size=12)
            forward = 1.0 + mgi(a, b) / 100.0
            backward = 1.0 + mgi(b, a) / 100.0
            assert forward * backward == pytest.approx(1.0, abs=1e-9)


class TestWinsLosses:
    def test_identical(self):
        assert wins_losses([1.0, 2.0], [1.0, 2.0]) == (0, 0, 2)

    def test_reference_dominates(self):
        assert wins_losses([9.0, 9.0, 9.0], [1.0, 2.0, 3.0]) == (0, 3, 0)

    def test_mixed(self):
        assert wins_losses([5.0, 5.0, 5.0], [6.0, 4.0, 5.0]) == (1, 1, 1)


class TestAverageRanks:
    def test_strict_dominance(self):
        table = np.array([[0.9, 0.8, 0.7],
                          [0.5, 0.6, 0.4]])
        assert average_ranks(table).tolist() == [2.0, 1.0]

    def test_all_tied(self):
        table = np.full((4, 6), 0.5)
        assert average_ranks(table).tolist() == [2.5] * 4

    def test_rank_sum(self):
        rng = np.random.default_rng(1)
        table = rng.uniform(size=(5, 9))
        assert average_ranks(table).sum() == pytest.approx(5 * 6 / 2)


class TestPairedSignTtest:
    def test_all_zero_degenerate(self):
        with pytest.warns(UserWarning, match="fewer than 2 decisive outcomes"):
            assert paired_sign_ttest([0, 0, 0, 0]) == 1.0

    def test_26_wins_13_losses_1_tie(self):
        # closed form: mean 0.325, sample sd sqrt(34.775/39), t = 2.1768,
        # two-sided p on 39 dof = 0.03562 (the standard paired test)
        x = [1] * 26 + [-1] * 13 + [0]
        mean = 13 / 40
        sd = math.sqrt((39 - 40 * mean ** 2) / 39)
        t = mean / (sd / math.sqrt(40))
        assert t == pytest.approx(2.1768, abs=5e-4)
        assert paired_sign_ttest(x) == pytest.approx(0.03562, abs=5e-5)

    def test_sweep_is_significant(self):
        assert paired_sign_ttest([1] * 40) < 1e-6

    def test_single_decision_degenerate(self):
        with pytest.warns(UserWarning):
            assert paired_sign_ttest([1, 0, 0]) == 1.0


class TestOracleAccuracy:
    def test_full_coverage(self):
        cm = CorrectnessMatrix(np.array([[0, 1], [1, 1]]), np.array([0, 1]),
                               2)
        assert oracle_accuracy(cm) == 100.0

    def test_uncovered_sample_counts_against(self):
        cm = CorrectnessMatrix(np.array([[1, 1], [1, 1]]), np.array([0, 1]),
                               2)
        assert oracle_accuracy(cm) == 50.0

    def test_complementary_pair(self):
        pred = np.array([[0, 1], [1, 0], [0, 1], [1, 0]])
        truth = np.array([0, 0, 1, 1])
        cm = CorrectnessMatrix(pred, truth, np.arange(4))
        assert oracle_accuracy(cm) == 100.0


class TestPcaProjection:
    def test_rotation_preserves_distances(self):
        rng = np.random.default_rng(2)
        train = rng.normal(size=(50, 2))
        test = rng.normal(size=(10, 2))
        coords = pca_projection(train, test)
        d_orig = np.linalg.norm(test[:, None] - test[None, :], axis=2)
        d_proj = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
        assert np.allclose(d_orig, d_proj, atol=1e-9)

    def test_constant_feature_ignored(self):
        rng = np.random.default_rng(3)
        train = np.column_stack([rng.normal(size=40), np.full(40, 7.0),
                                 rng.normal(size=40)])
        test = np.column_stack([rng.normal(size=5), np.full(5, 7.0),
                                rng.normal(size=5)])
        coords = pca_projection(train, test)
        # wiggling the constant feature must not move the projection
        test2 = test.copy()
        coords2 = pca_projection(train, test2)
        assert np.allclose(coords, coords2)

    def test_rank_deficient_warns(self):
        train = np.tile([[1.0, 2.0]], (10, 1))
        with pytest.warns(UserWarning, match="rank"):
            coords = pca_projection(train, train)
        assert np.allclose(coords, 0.0)


def tiny_experiment_config(tmp_path, rows=240, seed=11, centre=2.0,
                           spread=0.7):
    """Small learnable dataset exercising the native classifier pool: two
    classes around (-centre, 0) and (centre, 0). The default clusters
    barely touch; closer, wider ones make the classifiers disagree."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal((-centre, 0), spread, size=(rows // 2, 2)),
                   rng.normal((centre, 0), spread, size=(rows // 2, 2))])
    y = ["a"] * (rows // 2) + ["b"] * (rows // 2)
    path = tmp_path / "tiny.csv"
    with open(path, "w") as fh:
        fh.write("x0,x1,label\n")
        for i in range(rows):
            fh.write("%.8f,%.8f,%s\n" % (X[i, 0], X[i, 1], y[i]))
    return ExperimentConfig(datasets=[("tiny", str(path), "label")],
                            seed=seed, n_trees=10)


class TestRunExperiment:
    def test_oracle_dominates_every_method(self, tmp_path):
        cfg = tiny_experiment_config(tmp_path)
        result = run_experiment(cfg)
        assert not result.errors
        for method in cfg.methods:
            cell = result.cells[("tiny", method)]
            assert 0.0 <= cell.accuracy <= result.oracle["tiny"] + 1e-9

    def test_cv3_protocol_runs(self, tmp_path):
        cfg = tiny_experiment_config(tmp_path)
        cfg.protocol = "cv3"
        cfg.methods = ["cshc", "rr", "mv"]
        cfg.reference = "rr"
        result = run_experiment(cfg)
        assert not result.errors

    def test_unanimous_pool_gives_mv_100(self, tmp_path):
        # every classifier predicting the truth makes majority vote exact
        rng = np.random.default_rng(4)
        X = rng.normal(size=(120, 2))
        y = rng.integers(0, 2, size=120)
        path = tmp_path / "unanimous.csv"
        with open(path, "w") as fh:
            fh.write("x0,x1,label\n")
            for i in range(120):
                fh.write("%f,%f,c%d\n" % (X[i, 0], X[i, 1], y[i]))
        ext = tmp_path / "perfect.csv"
        enc = {}
        for t in y:
            enc.setdefault(int(t), len(enc))
        with open(ext, "w") as fh:
            fh.write("sample_index,predicted_class\n")
            for i in range(120):
                fh.write("%d,%d\n" % (i, enc[int(y[i])]))
        cfg = ExperimentConfig(datasets=[("u", str(path), "label")],
                               pool=[],
                               external=[("p1", str(ext)), ("p2", str(ext))],
                               methods=["mv"], reference="mv", seed=1,
                               n_trees=5)
        result = run_experiment(cfg)
        assert result.cells[("u", "mv")].accuracy == 100.0

    def test_failed_dataset_isolated(self, tmp_path):
        cfg = tiny_experiment_config(tmp_path)
        cfg.datasets = [("missing", str(tmp_path / "nope.csv"), "label")] \
            + cfg.datasets
        result = run_experiment(cfg)
        assert "missing" in result.errors
        assert ("tiny", "lpr") in result.cells

    def test_optional_methods_run(self, tmp_path):
        cfg = tiny_experiment_config(tmp_path)
        cfg.methods = ["apo", "knora_e", "mv"]
        cfg.reference = "mv"
        result = run_experiment(cfg)
        assert not result.errors

    def test_predicted_class_is_chosen_classifiers_label(self, region_result):
        _, result, _, _ = region_result
        prep = result.preps["regions"]
        for method in ("cshc", "rr", "lp", "lpr"):
            cell = result.cells[("regions", method)]
            q = np.arange(prep.test_ds.n_samples)
            assert np.array_equal(cell.outcomes.predicted,
                                  prep.test_labels[q, cell.outcomes.chosen])

    def test_recourse_rate_matches_outcomes(self, tmp_path):
        cfg = tiny_experiment_config(tmp_path)
        cfg.methods = ["lpr"]
        cfg.reference = "lpr"
        result = run_experiment(cfg)
        cell = result.cells[("tiny", "lpr")]
        recourse = cell.outcomes.recourse
        assert cell.recourse_rate == recourse.sum() / recourse.size

    def test_results_csv_written(self, tmp_path):
        cfg = tiny_experiment_config(tmp_path)
        cfg.methods = ["cshc", "rr", "mv"]
        cfg.reference = "rr"
        result = run_experiment(cfg)
        out = tmp_path / "results.csv"
        write_results_csv(result, str(out))
        text = out.read_text()
        assert "tiny" in text
        assert "avg_rank" in text


class TestConcurrentRegions:
    """run_experiment finds the kNN regions on a worker thread while the
    cells run in cfg.methods order; each cell keeps its result or error."""

    def test_region_error_fails_each_region_cell_in_order(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        cfg = tiny_experiment_config(tmp_path)
        cfg.methods = ["knora_u", "cshc", "ola", "mv", "rr", "lca"]
        cfg.reference = "mv"

        def no_regions(*args):
            raise ValueError("no regions")

        monkeypatch.setattr(bl, "region_of", no_regions)
        result = run_experiment(cfg)
        failed = ["knora_u", "ola", "lca"]
        assert list(result.errors) == [("tiny", m) for m in failed]
        assert all(type(exc) is ValueError and str(exc) == "no regions"
                   for exc in result.errors.values())
        assert set(result.cells) == {("tiny", m)
                                     for m in ("cshc", "mv", "rr")}
        _warn(result.errors)
        assert capsys.readouterr().err.splitlines() == [
            "warning: ('tiny', '%s') failed: ValueError: no regions" % m
            for m in failed]

    @pytest.mark.parametrize("methods,calls", [
        (["cshc", "ola", "lca", "mv"], 1), (["cshc", "rr", "mv"], 0)])
    def test_regions_found_once_on_the_worker(self, tmp_path, monkeypatch,
                                              methods, calls):
        cfg = tiny_experiment_config(tmp_path)
        cfg.methods, cfg.reference = methods, "mv"
        real, threads = bl.region_of, []

        def spy(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(bl, "region_of", spy)
        result = run_experiment(cfg)
        assert not result.errors
        assert len(threads) == calls
        assert threading.main_thread() not in threads
        prep = result.preps["tiny"]
        if calls:
            want = real(prep.test_std, cfg.knn_k, prep.dsel_std)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(prep.regions, want))
        else:
            assert prep.regions is None

    def test_clamp_warns_once(self, tmp_path):
        cfg = tiny_experiment_config(tmp_path)
        cfg.methods = ["ola", "cshc", "lca", "mv"]
        cfg.reference, cfg.knn_k = "mv", 10 ** 6
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            result = run_experiment(cfg)
        assert not result.errors
        clamps = [str(w.message) for w in seen
                  if "exceeds pool" in str(w.message)]
        pool = result.preps["tiny"].dsel_std.shape[0]
        assert clamps == ["k=%d exceeds pool of %d samples; clamping"
                          % (cfg.knn_k, pool)]


class TestExportViz:
    def test_row_count_and_columns(self, tmp_path):
        cfg = tiny_experiment_config(tmp_path)
        cfg.methods = ["cshc"]
        cfg.reference = "cshc"
        result = run_experiment(cfg)
        prep = result.preps["tiny"]
        out = tmp_path / "viz.csv"
        cell = result.cells[("tiny", "cshc")]
        export_viz(prep.ds, prep.plan, cell.chosen, cell.predicted, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sample_index,pc1,pc2,chosen_classifier,correct"
        assert len(lines) - 1 == prep.test_ds.n_samples

    def test_baseline_method(self, tmp_path):
        cfg = tiny_experiment_config(tmp_path)
        cfg.methods = ["ola"]
        cfg.reference = "ola"
        result = run_experiment(cfg)
        prep = result.preps["tiny"]
        cell = result.cells[("tiny", "ola")]
        out = tmp_path / "viz.csv"
        export_viz(prep.ds, prep.plan, cell.chosen, cell.predicted, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["sample_index"]) for r in rows] == \
            prep.plan.test_indices.tolist()
        assert [int(r["chosen_classifier"]) for r in rows] == \
            cell.chosen.tolist()
        correct = cell.predicted == prep.test_ds.labels
        assert [int(r["correct"]) for r in rows] == correct.astype(int).tolist()


class TestSaveBundle:
    def test_load_then_save_writes_the_same_bytes(self, tmp_path):
        """A cv3 bundle whose trees split, with all four native kinds,
        saved again from what load_bundle gives back, is the same three
        files byte for byte."""
        cfg = tiny_experiment_config(tmp_path, seed=12, centre=1.0,
                                     spread=1.0)
        cfg.protocol = "cv3"
        name, path, label = cfg.datasets[0]
        prep = prepare_dataset(name, load_csv(path, label), cfg)
        assert any(tree.feat[0] >= 0 for tree in prep.forest.trees)
        assert sorted(m.spec.kind for m in prep.models) == [
            "decision_tree_gini", "gaussian_nb", "one_nn", "perceptron"]
        first, second = tmp_path / "first", tmp_path / "second"
        save_bundle(prep, str(first))
        meta, models, forest = load_bundle(str(first))
        names = meta["dataset"]
        again = SimpleNamespace(
            name=names["name"], ds=SimpleNamespace(
                feature_names=names["feature_names"],
                class_names=names["class_names"]),
            cm=forest.cm, models=models, forest=forest,
            cfg=SimpleNamespace(**meta["config"]))
        save_bundle(again, str(second))
        for fname in ("forest.json", "models.json", "meta.json"):
            assert (second / fname).read_bytes() == \
                (first / fname).read_bytes(), fname


class TestScoringRoute:
    """Every scoring of the pool goes through
    `classifiers.predict_proba_batch`, the call the benchmark's tracer
    times as `classifiers.predict`: a counting wrapper on it sees as many
    rows as the models and tables score, whoever asks."""

    def scored_rows(self, run):
        """run()'s result, the rows of each predict_proba_batch call, and
        the rows the models and the prediction tables scored."""
        batch_rows, model_rows = [], []
        batch = clf.predict_proba_batch
        features = TrainedClassifier.proba_from_features
        lookup = ExternalPredictions.proba_rows

        def counted_batch(model, X, row_ids):
            batch_rows.append(len(row_ids))
            return batch(model, X, row_ids)

        def counted_features(model, X):
            model_rows.append(len(X))
            return features(model, X)

        def counted_lookup(table, indices):
            model_rows.append(len(indices))
            return lookup(table, indices)

        with mock.patch.object(clf, "predict_proba_batch", counted_batch), \
                mock.patch.object(TrainedClassifier, "proba_from_features",
                                  counted_features), \
                mock.patch.object(ExternalPredictions, "proba_rows",
                                  counted_lookup):
            out = run()
        return out, batch_rows, model_rows

    def config(self, tmp_path, protocol, external):
        cfg = tiny_experiment_config(tmp_path, centre=1.0, spread=1.0)
        cfg.protocol = protocol
        if external:
            path = tmp_path / "ext.csv"
            with open(path, "w") as fh:
                fh.write("sample_index,predicted_class\n")
                for i in range(240):
                    fh.write("%d,%d\n" % (i, i % 3 % 2))
            cfg.external = [("ext", str(path))]
        return cfg

    @pytest.mark.parametrize("protocol", ["split50", "cv3"])
    def test_prepare_dataset(self, tmp_path, protocol):
        cfg = self.config(tmp_path, protocol, external=True)
        name, path, label = cfg.datasets[0]
        prep, batch_rows, model_rows = self.scored_rows(
            lambda: prepare_dataset(name, load_csv(path, label), cfg))
        n = len(prep.models)
        assert n == 5
        # each model scores its validation rows (half B under split50,
        # three held-out folds under cv3), then the test partition
        M, Q = prep.cm.n_samples, prep.test_ds.n_samples
        calls = (2 if protocol == "split50" else 4) * n
        assert len(batch_rows) == len(model_rows) == calls
        assert sum(batch_rows) == sum(model_rows) == n * (M + Q)
        if protocol == "cv3":
            assert M == prep.plan.train_indices.size

    def test_select_rows(self, tmp_path):
        # seed 12: the pick of the first 37 test rows mixes two models
        cfg = tiny_experiment_config(tmp_path, seed=12, centre=1.0,
                                     spread=1.0)
        name, path, label = cfg.datasets[0]
        prep = prepare_dataset(name, load_csv(path, label), cfg)
        X = prep.test_ds.features[:37]

        def scored(method):
            return self.scored_rows(lambda: select_rows(
                prep.models, prep.forest, X, method, cfg.gamma, cfg.rho,
                cfg.seed))
        # under cshc each model scores only the rows that pick it, in
        # classifier order, so the batch sizes sum to the 37 rows
        out, batch_rows, model_rows = scored("cshc")
        assert out.chosen.size == 37
        picks = np.bincount(out.chosen, minlength=len(prep.models))
        assert np.count_nonzero(picks) > 1
        assert batch_rows == model_rows == picks[picks > 0].tolist()
        assert sum(batch_rows) == 37
        # rr votes over every model's label of every row
        _, batch_rows, model_rows = scored("rr")
        assert batch_rows == model_rows == [37] * len(prep.models)


@pytest.fixture(scope="module")
def mixed_prep(tmp_path_factory):
    """A dataset on which CSHC picks each of the four native models for
    some of the points in [-4, 4]^2."""
    cfg = tiny_experiment_config(tmp_path_factory.mktemp("mixed"), seed=19,
                                 centre=1.0, spread=1.0)
    name, path, label = cfg.datasets[0]
    return prepare_dataset(name, load_csv(path, label), cfg), cfg


class TestCshcScoresChosenRows:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
                    min_size=1, max_size=40))
    def test_same_selection_as_from_every_label(self, mixed_prep, points):
        """select_rows under cshc, which scores each row with its pick
        only, gives what select_batch gives from every model's label of
        every row, column by column."""
        prep, cfg = mixed_prep
        X = np.array(points)
        rows = np.arange(len(X))
        got = select_rows(prep.models, prep.forest, X, "cshc", cfg.gamma,
                          cfg.rho, cfg.seed)
        want = sel.select_batch(
            "cshc", prep.forest, *query_batch(prep.forest, X),
            clf.pool_proba(prep.models, X, rows).argmax(axis=2), rows,
            cfg.gamma, cfg.rho, cfg.seed, {})
        for f in dataclasses.fields(sel.Selection):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert isinstance(a, str) and a == b or (
                a.dtype == b.dtype and a.tobytes() == b.tobytes()), f.name
