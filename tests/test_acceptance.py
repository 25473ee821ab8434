"""Acceptance gate: eleven end-to-end criteria at their stated tolerances.

Each criterion is one test; the PASS line it prints states what was checked
and at what tolerance.  The heavy end-to-end artifacts (full-size synthetic
bundle, fitted models, expansion) are computed once in the `e2e` fixture and
shared by criteria 6, 7, 9 and 10.
"""

import json
import time

import numpy as np
import pytest

from hiddenpop.cli import main
from hiddenpop.domain import (
    BackgroundKind,
    admissible_triples,
    compute_delta_type,
    excluded_triples,
)
from hiddenpop.errors import ExcludedCombination
from hiddenpop.eval import (
    METRIC_NAMES,
    evaluate,
    kfold_cv,
    roc,
    split_train_validate,
)
from hiddenpop.expand import (
    Expanded,
    bias_report,
    expand_dataset,
    impute_pa,
    tabulate_population,
)
from hiddenpop.features import assemble_training_set, build_schema
from hiddenpop.ingest import build_name_table, link, parse_admin, parse_survey
from hiddenpop.models import (
    fit_logistic,
    fit_forest,
    logistic_trainer,
    permutation_importance,
    predict_forest,
    predict_logistic,
)
from hiddenpop.models.logistic import penalized_gradient, penalized_loglik
from hiddenpop.synth import SynthConfig, generate, generating_design, load_truth

from register_reference import register_of
from test_ingest import make_admin


class EndToEnd:
    """Full-default run: synth -> link -> train -> validate -> expand."""

    def __init__(self, out_dir):
        t0 = time.perf_counter()
        self.config = SynthConfig()
        self.seed = self.config.seed
        self.bundle = generate(self.config, out_dir)
        self.admin = parse_admin(self.bundle.admin_path)
        survey = parse_survey(self.bundle.survey_path,
                              self.bundle.screened_out_path)
        self.table = build_name_table(self.bundle.name_table_path)
        self.linked = link(self.admin, survey)
        self.schema = build_schema(
            self.admin.take(self.linked.rows[self.linked.native()]), self.table)
        self.data = assemble_training_set(self.linked, self.schema, self.table)
        self.train, self.val = split_train_validate(self.data, 0.75, seed=self.seed)
        self.logistic = fit_logistic(self.train)
        self.logit_scores = predict_logistic(self.logistic, self.val.X)
        self.logit_report = evaluate(self.logit_scores, self.val.y)
        self.forest = fit_forest(self.train, n_trees=500, seed=self.seed)
        self.forest_report = evaluate(predict_forest(self.forest, self.val.X),
                                      self.val.y)
        self.cv = kfold_cv(self.data, logistic_trainer(), k=10, seed=self.seed)
        self.elapsed = time.perf_counter() - t0
        self.truth = load_truth(self.bundle.truth_path)

    def expanded_at(self, threshold):
        imputations = impute_pa(self.logistic, self.schema, self.admin,
                                self.table, linked_rows=self.linked.rows,
                                threshold=threshold)
        return expand_dataset(self.admin, self.linked, imputations)


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    return EndToEnd(tmp_path_factory.mktemp("acceptance_e2e"))


def test_criterion_01_indicator_enumeration():
    expected = {
        (1, 1, 1): (0, 0), (1, 1, 0): (1, 1), (1, 0, 0): (1, 2),
        (0, 1, 0): (1, 3), (0, 0, 0): (1, 4), (0, 1, 1): (0, 0),
    }
    compute_delta_type(1, 1, 1)  # warm up before timing
    t0 = time.perf_counter()
    excluded_seen = 0
    for bp in (0, 1):
        for cit in (0, 1):
            for pa in (0, 1):
                try:
                    bg = compute_delta_type(bp, cit, pa)
                except ExcludedCombination:
                    excluded_seen += 1
                    continue
                assert (bg.delta, int(bg.kind)) == expected[(bp, cit, pa)]
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    assert excluded_seen == 2
    assert set(admissible_triples()) == set(expected)
    assert excluded_triples() == [(0, 0, 1), (1, 0, 1)]
    assert elapsed_ms < 1.0
    print(f"\nPASS criterion 1: 8 triples -> 6 exact mappings + 2 exclusions "
          f"in {elapsed_ms:.3f} ms")


def _brute_force_metrics(scores, labels, threshold):
    tp = fp = fn = tn = 0
    for s, y in zip(scores, labels):
        pred = 1 if s > threshold else 0
        tp += pred == 1 and y == 1
        fp += pred == 1 and y == 0
        fn += pred == 0 and y == 1
        tn += pred == 0 and y == 0
    total = tp + fp + fn + tn
    acc = (tp + tn) / total
    prec = tp / (tp + fp) if tp + fp else None
    tpr = tp / (tp + fn) if tp + fn else None
    f1 = (2 * prec * tpr / (prec + tpr)
          if prec is not None and tpr is not None and prec + tpr else None)
    p_e = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / (total * total)
    kappa = (acc - p_e) / (1 - p_e) if p_e < 1 else None
    return dict(accuracy=acc, precision=prec, true_positive_rate=tpr,
                f1=f1, kappa=kappa)


def test_criterion_02_metric_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1_000):
        n = int(rng.integers(1, 40))
        scores = np.round(rng.random(n), 2)  # rounding forces score ties
        labels = rng.integers(0, 2, size=n)
        threshold = float(rng.choice([0.25, 0.5, 0.75, scores[0]]))
        got = evaluate(scores, labels, threshold).as_dict()
        want = _brute_force_metrics(scores, labels, threshold)
        for name in METRIC_NAMES:
            if want[name] is None:
                assert got[name] is None
            else:
                assert abs(got[name] - want[name]) < 1e-12
    fixture = _brute_force_metrics([0.9, 0.8, 0.7, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05, 0.01],
                                   [1, 1, 0, 1, 1, 0, 1, 0, 0, 0], 0.5)
    assert fixture["accuracy"] == 0.7
    assert fixture["precision"] == 0.75
    assert fixture["true_positive_rate"] == 0.6
    assert abs(fixture["f1"] - 2 / 3) < 1e-12
    print("\nPASS criterion 2: 1000 random instances match the brute-force "
          "evaluator < 1e-12; tp=3,fp=1,fn=2,tn=4 fixture gives 0.7/0.75/0.6/0.667")


def test_criterion_03_auc_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        n = int(rng.integers(4, 80))
        scores = np.round(rng.random(n), 1)  # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        auc = roc(scores, labels).auc
        pos, neg = scores[labels == 1], scores[labels == 0]
        pairs = ((pos[:, None] > neg[None, :]).sum()
                 + 0.5 * (pos[:, None] == neg[None, :]).sum())
        assert abs(auc - pairs / (len(pos) * len(neg))) < 1e-9
        checked += 1
    assert roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]).auc == 1.0
    assert roc([0.4] * 6, [1, 0, 1, 0, 1, 0]).auc == 0.5
    print("\nPASS criterion 3: trapezoid AUC = Mann-Whitney pair counting "
          "< 1e-9 on 200 tied instances; separable -> 1.0, constant -> 0.5")


def test_criterion_04_logistic_optimality_and_gradient(e2e):
    model = e2e.logistic
    assert model.max_abs_gradient < 1e-8
    X1 = np.hstack([np.ones((len(e2e.train.y), 1)), e2e.train.X])
    y = e2e.train.y.astype(float)
    lam_vec = np.r_[0.0, np.full(e2e.schema.width, model.ridge_lambda)]
    beta_hat = np.r_[model.intercept, model.weights]
    assert np.max(np.abs(penalized_gradient(beta_hat, X1, y, lam_vec))) < 1e-8
    rng = np.random.default_rng(0)
    h = 1e-6
    worst = 0.0
    for _ in range(5):
        beta = beta_hat + rng.normal(scale=0.3, size=len(beta_hat))
        analytic = penalized_gradient(beta, X1, y, lam_vec)
        for j in range(len(beta)):
            e = np.zeros(len(beta))
            e[j] = h
            fd = (penalized_loglik(beta + e, X1, y, lam_vec)
                  - penalized_loglik(beta - e, X1, y, lam_vec)) / (2 * h)
            worst = max(worst, abs(analytic[j] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-6
    print(f"\nPASS criterion 4: max|penalized gradient| = "
          f"{model.max_abs_gradient:.2e} < 1e-8 at the fit; finite-difference "
          f"relative error {worst:.2e} < 1e-6 at 5 random points")


def test_criterion_05_parameter_recovery(tmp_path):
    # recovery-friendly generating model: balanced classes and no tiny cells,
    # so the n=10,000 sampling error stays well inside the +-0.1 tolerance
    cfg = SynthConfig()
    cfg.n_register = 10_800  # ~10,000 rows in the modeled (1,1) stratum
    cfg.kind_shares = (50.0, 42.68, 0.36, 1.82, 5.14)
    cfg.employment_shares = {"student": 55.0, "student_worker": 20.0,
                             "worker_student": 15.0, "not_available": 10.0}
    cfg.common_name_share_native = 60.0
    cfg.signal["common_italian_name"] = -1.0
    cfg.signal["years_enrolled"] = 0.5
    cfg.signal["ects_earned"] = -0.3
    t0 = time.perf_counter()
    bundle = generate(cfg, tmp_path, seed=3)
    admin = parse_admin(bundle.admin_path)
    table = build_name_table(bundle.name_table_path)
    truth = load_truth(bundle.truth_path)
    native = admin.take(np.flatnonzero((admin.bp == 1) & (admin.cit == 1)))
    X = generating_design(native, table, cfg)
    y = np.array([1 - truth[key]["pa"] for key in native.link_key])
    from hiddenpop.features import LabeledDataset
    model = fit_logistic(LabeledDataset(X=X, y=y, row_ids=native.link_key.tolist()))
    elapsed = time.perf_counter() - t0
    meta = json.loads(bundle.meta_path.read_text())
    true_beta = np.array(meta["true_model"]["coefficients"])
    sup = float(np.max(np.abs(model.weights - true_beta)))
    sup_b0 = abs(model.intercept - meta["true_model"]["intercept"])
    assert len(native) >= 9_500
    assert sup < 0.1
    assert sup_b0 < 0.1
    assert elapsed < 10.0
    print(f"\nPASS criterion 5: n={len(native)} recovery sup-norm "
          f"{sup:.3f} (intercept {sup_b0:.3f}) < 0.1 in {elapsed:.1f} s")


def test_criterion_06_paper_shaped_end_to_end(e2e):
    r = e2e.logit_report
    assert len(e2e.data.y) == 714
    assert int(e2e.data.y.sum()) == 312 and int((e2e.data.y == 0).sum()) == 402
    assert 0.68 <= r.accuracy <= 0.84
    assert 0.72 <= r.precision <= 0.92
    assert 0.48 <= r.true_positive_rate <= 0.72
    diffs = {m: abs(getattr(r, m) - getattr(e2e.forest_report, m))
             for m in METRIC_NAMES}
    assert max(diffs.values()) < 0.06
    cv_gap = abs(e2e.cv.mean["accuracy"] - r.accuracy)
    assert cv_gap < 0.05
    assert e2e.elapsed < 120.0
    print(f"\nPASS criterion 6: logistic {r.accuracy:.3f}/{r.precision:.3f}/"
          f"{r.true_positive_rate:.3f} in [0.68,0.84]/[0.72,0.92]/[0.48,0.72]; "
          f"forest within {max(diffs.values()):.3f} (<0.06); CV gap "
          f"{cv_gap:.3f} (<0.05); end-to-end {e2e.elapsed:.0f} s (<120)")


def test_criterion_07_expansion_correctness(e2e):
    expanded = e2e.expanded_at(0.5)
    assert len(expanded) == e2e.config.n_register
    assert set(expanded.register.link_key) == set(e2e.truth)

    dist = tabulate_population(expanded)
    true_kinds = np.array([t["kind"] for t in e2e.truth.values()])
    n_true_members = int(np.sum(true_kinds != 0))
    worst = 0.0
    for row in dist.rows:
        if row["kind"] == 0:
            continue
        true_share = 100.0 * np.sum(true_kinds == row["kind"]) / n_true_members
        worst = max(worst, abs(row["pct_of_members"] - true_share))
    assert worst < 3.0

    sizes = [int(np.sum(e2e.expanded_at(t).delta == 1)) for t in (0.3, 0.5, 0.7)]
    assert sizes[0] >= sizes[1] >= sizes[2]
    print(f"\nPASS criterion 7: 100% coverage of {len(expanded)} records; "
          f"worst member-share error {worst:.2f} pp (<3); member estimate "
          f"monotone over thresholds 0.3/0.5/0.7: {sizes}")


def test_criterion_08_table5_fixture():
    counts = {0: 30_891, 1: 2_828, 2: 132, 3: 662, 4: 1_869}
    spec = {0: ("IT", "IT", 0), 1: ("IT", "IT", 1), 2: ("IT", "XX", 1),
            3: ("XX", "IT", 1), 4: ("XX", "XX", 1)}
    records, deltas, kinds = [], [], []
    i = 0
    for kind, n in counts.items():
        bpc, citc, delta = spec[kind]
        for _ in range(n):
            records.append(make_admin(f"S{i}", birth_country=bpc, citizenship_country=citc))
            deltas.append(delta)
            kinds.append(BackgroundKind(kind))
            i += 1
    table = tabulate_population(Expanded(register_of(records), np.array(deltas),
                                         np.array(kinds), np.zeros(i, dtype=int),
                                         np.full(i, np.nan)))
    expected = [84.91, 7.77, 0.36, 1.82, 5.14]
    worst = max(abs(row["pct_of_all"] - expected[row["kind"]])
                for row in table.rows)
    assert worst < 0.01
    print(f"\nPASS criterion 8: paper-count fixture reproduces "
          f"84.91/7.77/0.36/1.82/5.14 within {worst:.4f} pp (<0.01)")


def test_criterion_09_bias_report(e2e):
    expanded = e2e.expanded_at(0.5)
    members = expanded.register.take(np.flatnonzero(expanded.delta == 1))
    eligible = [s.eligible for s in e2e.linked.survey]
    sample = e2e.admin.take(e2e.linked.rows[eligible])
    br = bias_report(members, sample, variables=["gender", "department"])
    _pop, _samp, gender_gap = br.variables["gender"]["M"]
    assert -15.0 <= gender_gap <= -9.0  # -12 +- 3 pp
    others = [(var, level, gap) for var, level, gap in br.flagged
              if var != "gender" and abs(gap) >= 5.0]
    assert others
    var, level, gap = max(others, key=lambda t: abs(t[2]))
    print(f"\nPASS criterion 9: male sample gap {gender_gap:+.1f} pp in "
          f"-12 +- 3; second flag {var}={level} at {gap:+.1f} pp (|gap| >= 5)")


def test_criterion_10_importance_ranking(e2e):
    groups = [(g, e2e.schema.group_indices(g)) for g in e2e.schema.groups]
    top = sum(
        permutation_importance(e2e.forest, e2e.val, seed=s,
                               groups=groups).ranking[0] == "common_italian_name"
        for s in range(10)
    )
    assert top >= 9
    print(f"\nPASS criterion 10: common_italian_name ranked first in "
          f"{top}/10 seeded permutation-importance runs (>= 9 required)")


def _artifact_map(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_criterion_11_determinism(tmp_path):
    cfg = SynthConfig()
    cfg.n_register = 6_000
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    runs = {}
    for name in ("a", "b", "c"):
        out = tmp_path / name
        assert main(["pipeline", "--out", str(out), "--config", str(cfg_path),
                     "--trees", "60", "--k", "0"]) == 0
        runs[name] = _artifact_map(out)
    assert runs["a"].keys() == runs["b"].keys() == runs["c"].keys()
    compared = 0
    for rel in runs["a"]:
        blobs = [runs[k][rel] for k in ("a", "b", "c")]
        if rel.endswith("run_manifest.json"):
            # manifests embed a wall-clock timestamp and absolute run paths;
            # the reproducibility claim is about the artifact digests
            digests = [
                {"outputs": p["outputs"], "seed": p["seed"],
                 "subcommand": p["subcommand"], "versions": p["versions"]}
                for p in map(json.loads, blobs)
            ]
            assert digests[0] == digests[1] == digests[2]
        else:
            assert blobs[0] == blobs[1] == blobs[2]
            compared += 1
    print(f"\nPASS criterion 11: {compared} artifacts byte-identical across "
          f"three identical runs (manifest compared minus timestamp)")
