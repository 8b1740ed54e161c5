"""Hybrid planner, privacy and output-validation tests."""

import numpy as np
import pytest

from repro.core.hybrid import AdaptiveKPredictor, HybridPlanner, LearnedOrderRouter
from repro.core.privacy import (
    PrivacyAccountant,
    dp_logistic_regression,
    gaussian_mechanism,
    laplace_mechanism,
    membership_inference_advantage,
)
from repro.core.privacy.federated import (
    FederatedTrainer,
    LogisticModel,
    er_pair_features,
    split_across_clients,
)
from repro.core.validation import (
    CrowdValidator,
    SQLValidator,
    TransactionValidator,
    explain_by_occlusion,
    self_consistency,
)
from repro.datasets import generate_er_pairs
from repro.llm import LLMClient
from repro.vectordb import Collection, FilterStrategy


# ---------------------------------------------------------------- hybrid


@pytest.fixture()
def grouped_collection():
    rng = np.random.default_rng(0)
    c = Collection(dim=8)
    for i in range(200):
        c.add(f"i{i}", rng.normal(size=8), metadata={"group": i % 20, "half": i % 2})
    return c


class TestHybridPlanner:
    def test_selective_filter_goes_pre(self, grouped_collection):
        planner = HybridPlanner(grouped_collection)
        decision = planner.plan({"group": 3}, k=5)
        assert decision.strategy is FilterStrategy.PRE
        assert decision.estimated_selectivity == pytest.approx(0.05)

    def test_broad_filter_goes_post(self, grouped_collection):
        planner = HybridPlanner(grouped_collection)
        decision = planner.plan({"half": 0}, k=5)
        assert decision.strategy is FilterStrategy.POST
        assert decision.widened_k > 5

    def test_search_fills_k(self, grouped_collection):
        planner = HybridPlanner(grouped_collection)
        report, decision = planner.search(np.ones(8), k=5, where={"half": 1})
        assert len(report.hits) == 5
        assert all(h.metadata["half"] == 1 for h in report.hits)

    def test_k_predictor_learns_from_feedback(self):
        predictor = AdaptiveKPredictor(safety=1.0)
        before = predictor.predict_k(10, selectivity=0.5)
        for _i in range(5):
            predictor.observe(requested_k=10, scanned_k=80, returned=10)
        after = predictor.predict_k(10, selectivity=0.5)
        assert after != before
        assert after >= 10

    def test_k_predictor_null_result_pessimism(self):
        predictor = AdaptiveKPredictor()
        predictor.observe(requested_k=5, scanned_k=50, returned=0)
        assert predictor.predict_k(5, selectivity=0.9) > 5

    def test_learned_router(self):
        samples = []
        # PRE wins when selectivity is low, loses when high (synthetic truth).
        for selectivity in np.linspace(0.01, 0.99, 25):
            samples.append((float(selectivity), 1000, 10, bool(selectivity < 0.3)))
        router = LearnedOrderRouter().fit(samples)
        assert router.prefer_pre(0.05, 1000, 10)
        assert not router.prefer_pre(0.9, 1000, 10)

    def test_router_requires_fit(self):
        with pytest.raises(RuntimeError):
            LearnedOrderRouter().prefer_pre(0.5, 10, 5)

    def test_planner_uses_fitted_router(self, grouped_collection):
        router = LearnedOrderRouter().fit([(0.05, 200, 5, True), (0.9, 200, 5, False)])
        planner = HybridPlanner(grouped_collection, router=router)
        assert planner.plan({"group": 1}, k=5).strategy is FilterStrategy.PRE


# ---------------------------------------------------------------- privacy


class TestMechanisms:
    def test_laplace_noise_distribution(self):
        rng = np.random.default_rng(0)
        noisy = [laplace_mechanism(10.0, sensitivity=1.0, epsilon=1.0, rng=rng) for _ in range(500)]
        assert abs(np.mean(noisy) - 10.0) < 0.3

    def test_higher_epsilon_less_noise(self):
        rng_lo = np.random.default_rng(1)
        rng_hi = np.random.default_rng(1)
        loose = [laplace_mechanism(0.0, 1.0, 0.1, rng=rng_lo) for _ in range(300)]
        tight = [laplace_mechanism(0.0, 1.0, 10.0, rng=rng_hi) for _ in range(300)]
        assert np.std(tight) < np.std(loose)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            laplace_mechanism(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_mechanism(1.0, 1.0, 1.0, delta=2.0)

    def test_accountant_basic_composition(self):
        accountant = PrivacyAccountant()
        accountant.record(1.0, 1e-5)
        accountant.record(0.5, 1e-5)
        eps, delta = accountant.basic_composition()
        assert eps == pytest.approx(1.5)
        assert delta == pytest.approx(2e-5)

    def test_advanced_composition_beats_basic_for_many_steps(self):
        accountant = PrivacyAccountant()
        for _i in range(100):
            accountant.record(0.1)
        basic_eps, _ = accountant.basic_composition()
        adv_eps, _ = accountant.advanced_composition()
        assert adv_eps < basic_eps


@pytest.fixture(scope="module")
def er_features():
    pairs = generate_er_pairs(n=160, seed=7)
    x = np.stack([er_pair_features(p.a, p.b) for p in pairs])
    y = np.array([1.0 if p.label else 0.0 for p in pairs])
    return x, y


class TestDPTraining:
    def test_non_private_learns(self, er_features):
        x, y = er_features
        weights = dp_logistic_regression(x[:100], y[:100], epsilon=None, epochs=60)
        acc = LogisticModel(weights).accuracy(x[100:], y[100:])
        assert acc >= 0.85

    def test_dp_utility_degrades_gracefully(self, er_features):
        x, y = er_features
        accuracies = []
        for epsilon in (None, 8.0, 0.05):
            weights = dp_logistic_regression(x[:100], y[:100], epsilon=epsilon, epochs=30, seed=3)
            accuracies.append(LogisticModel(weights).accuracy(x[100:], y[100:]))
        assert accuracies[0] >= accuracies[2] - 0.05  # tiny-epsilon is worst (or tied)
        assert accuracies[1] >= accuracies[2]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            dp_logistic_regression(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            dp_logistic_regression(np.zeros((3, 2)), np.zeros(3), epsilon=-1.0)

    def test_membership_inference_on_overfit_model(self, er_features):
        x, y = er_features
        # Overfit regime: tiny training set, many epochs, no privacy.
        train_x, train_y = x[:16], y[:16]
        weights = dp_logistic_regression(train_x, train_y, epsilon=None, epochs=400, learning_rate=1.0)
        report = membership_inference_advantage(weights, train_x, train_y, x[100:], y[100:])
        assert report.advantage > 0.05
        assert 0 <= report.true_positive_rate <= 1


class TestFederated:
    def test_split_covers_all_data(self, er_features):
        x, y = er_features
        clients = split_across_clients(x, y, n_clients=4, seed=1)
        assert sum(c.n_examples for c in clients) == len(y)

    def test_heterogeneous_sizes_differ(self, er_features):
        x, y = er_features
        clients = split_across_clients(x, y, n_clients=4, seed=1, heterogeneous=True)
        sizes = [c.n_examples for c in clients]
        assert max(sizes) > min(sizes)

    def test_fedavg_learns(self, er_features):
        x, y = er_features
        clients = split_across_clients(x[:120], y[:120], n_clients=3, seed=2)
        trainer = FederatedTrainer(clients, dim=x.shape[1], seed=3)
        model = trainer.train(rounds=4, eval_set=(x[120:], y[120:]))
        assert model.accuracy(x[120:], y[120:]) >= 0.8
        assert len(trainer.history) == 4

    def test_trainer_requires_clients(self):
        with pytest.raises(ValueError):
            FederatedTrainer([], dim=3)


# -------------------------------------------------------------- validation


class TestValidators:
    def test_sql_validator_passes_good_sql(self, concert_db):
        report = SQLValidator(concert_db).validate("SELECT name FROM stadium WHERE capacity > 0")
        assert report.valid

    def test_sql_validator_flags_syntax(self, concert_db):
        report = SQLValidator(concert_db).validate("SELEC name FROM stadium")
        assert not report.valid
        assert report.failed_checks() == ["syntax"]

    def test_sql_validator_flags_unknown_table(self, concert_db):
        report = SQLValidator(concert_db).validate("SELECT x FROM missing_table")
        assert "schema" in report.failed_checks()

    def test_sql_validator_does_not_mutate(self, concert_db):
        before = concert_db.query_scalar("SELECT COUNT(*) FROM stadium")
        SQLValidator(concert_db).validate("DELETE FROM stadium")
        assert concert_db.query_scalar("SELECT COUNT(*) FROM stadium") == before

    def test_transaction_validator(self):
        from repro.apps.transform.transaction import make_accounts_db

        db = make_accounts_db({"a": 100.0, "b": 0.0})
        validator = TransactionValidator(db)
        good = (
            "BEGIN; UPDATE accounts SET balance = balance - 5 WHERE owner = 'a'; "
            "UPDATE accounts SET balance = balance + 5 WHERE owner = 'b'; COMMIT;"
        )
        assert validator.validate(good).valid
        unbalanced = "BEGIN; UPDATE accounts SET balance = balance - 5 WHERE owner = 'a'; COMMIT;"
        assert "balance_conservation" in validator.validate(unbalanced).failed_checks()
        unframed = (
            "UPDATE accounts SET balance = balance - 5 WHERE owner = 'a'; "
            "UPDATE accounts SET balance = balance + 5 WHERE owner = 'b';"
        )
        assert "atomicity" in validator.validate(unframed).failed_checks()


class TestSelfConsistency:
    def test_easy_question_unanimous(self):
        report = self_consistency("Question: Who directed The Silent Mirror?", model="gpt-4", n_samples=5)
        assert report.agreement >= 0.8

    def test_hard_question_disagrees_for_weak_model(self):
        report = self_consistency(
            "Question: Who directed the film that starred Torus Nashgate?",
            model="babbage-002",
            n_samples=7,
        )
        assert report.agreement < 1.0

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            self_consistency("Question: x?", n_samples=0)


class TestInterpretability:
    def test_occlusion_flags_entity_tokens(self):
        client = LLMClient(model="gpt-4")
        importances = explain_by_occlusion(
            client, "Question: Who directed The Silent Mirror?", max_tokens=12
        )
        assert importances
        top_tokens = {token.lower() for token, _imp in importances[:4]}
        # Occluding the film title must matter more than filler words.
        assert top_tokens & {"silent", "mirror"}


class TestCrowd:
    def test_majority_recovers_oracle(self):
        crowd = CrowdValidator(n_workers=9, worker_accuracy=0.8, seed=0)
        agree = sum(1 for i in range(40) if crowd.validate(f"item{i}", True).accepted)
        assert agree >= 36  # majority of 9 at 0.8 accuracy is near-perfect

    def test_low_accuracy_workers_fail_often(self):
        good = CrowdValidator(n_workers=5, worker_accuracy=0.95, seed=1)
        bad = CrowdValidator(n_workers=5, worker_accuracy=0.55, seed=1)
        good_hits = sum(1 for i in range(40) if good.validate(f"i{i}", True).accepted)
        bad_hits = sum(1 for i in range(40) if bad.validate(f"i{i}", True).accepted)
        assert good_hits > bad_hits

    def test_validation_deterministic(self):
        crowd = CrowdValidator(n_workers=5, worker_accuracy=0.7, seed=2)
        assert crowd.validate("k", True) == crowd.validate("k", True)

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            CrowdValidator(n_workers=0)
