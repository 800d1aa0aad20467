"""Run manifests: schema validity, round-trip, and the invariance
contract — the manifest's invariant view (everything but the
``execution`` / ``artifacts`` sections) must be byte-equal with
telemetry on or off, and for a resumed run vs an uninterrupted one,
on every benchmark dataset."""

import json

import pytest

from repro.core import EngineConfig, IncrementalReconciler, Reconciler, ReferenceStore
from repro.datasets import generate_pim_dataset
from repro.domains import CoraDomainModel, PimDomainModel
from repro.obs import (
    MetricsRegistry,
    ProvenanceLog,
    Telemetry,
    Tracer,
    build_manifest,
    invariant_view,
    load_manifest,
    partition_digest,
    resolve_artifact,
    validate_manifest,
    write_manifest,
)
from repro.evaluation.metrics import combine_scores, pairwise_scores
from repro.runtime import (
    Checkpointer,
    CrashAtStep,
    InjectedFault,
    load_checkpoint,
    restore_engine,
)

from .test_core_incremental import split_into_batches

DATASETS = ["A", "B", "C", "D", "cora"]


@pytest.fixture(scope="module")
def datasets(tiny_cora):
    loaded = {
        name: generate_pim_dataset(name, scale=0.15) for name in "ABCD"
    }
    loaded["cora"] = tiny_cora
    return loaded


def _domain(name):
    return CoraDomainModel() if name == "cora" else PimDomainModel()


def _run(dataset, name, *, telemetry=None, every=25):
    engine = Reconciler(
        dataset.store, _domain(name), EngineConfig(), telemetry=telemetry
    )
    engine.attach_convergence(dataset.gold.entity_of, every=every)
    result = engine.run()
    return build_manifest(dataset=dataset, reconciler=engine, result=result)


def _canon(view: dict) -> str:
    return json.dumps(view, sort_keys=True)


class TestManifestShape:
    def test_validates_and_round_trips(self, datasets, tmp_path):
        manifest = _run(datasets["B"], "B")
        validate_manifest(manifest)
        path = write_manifest(manifest, tmp_path)
        assert path.name == "run.json"
        assert _canon(load_manifest(tmp_path)) == _canon(manifest)
        assert _canon(load_manifest(path)) == _canon(manifest)

    def test_partition_digest_tracks_content(self):
        base = {"Person": [["a", "b"], ["c"]]}
        assert partition_digest(base) == partition_digest(
            {"Person": [["a", "b"], ["c"]]}
        )
        assert partition_digest(base) != partition_digest(
            {"Person": [["a"], ["b", "c"]]}
        )

    def test_quality_and_convergence_recorded(self, datasets):
        manifest = _run(datasets["B"], "B")
        assert manifest["quality"], "gold datasets must produce quality"
        for scores in manifest["quality"].values():
            for family in ("pairwise", "bcubed"):
                for metric in ("precision", "recall", "f1"):
                    assert 0.0 <= scores[family][metric] <= 1.0
        samples = manifest["convergence"]
        assert len(samples) >= 2
        # keyed by the recomputation counter, strictly increasing, and
        # the last sample reflects the finished run
        keys = [sample["recomputations"] for sample in samples]
        assert keys == sorted(set(keys))
        assert samples[-1]["merges"] == manifest["counters"]["merges"]
        assert samples[-1]["queued"] == 0

    def test_resolve_artifact_relative_and_absolute(self, tmp_path):
        manifest = {"artifacts": {"provenance": "prov.jsonl", "trace": "/abs/t.json"}}
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        assert resolve_artifact(manifest, run_dir, "provenance") == run_dir / "prov.jsonl"
        assert str(resolve_artifact(manifest, run_dir, "trace")) == "/abs/t.json"
        assert resolve_artifact(manifest, run_dir, "metrics") is None


class TestInvariance:
    @pytest.mark.parametrize("name", DATASETS)
    def test_telemetry_on_vs_off(self, datasets, name, tmp_path):
        dataset = datasets[name]
        bare = _run(dataset, name)
        telemetry = Telemetry(
            tracer=Tracer(),
            metrics=MetricsRegistry(),
            provenance=ProvenanceLog(tmp_path / f"{name}.jsonl"),
        )
        observed = _run(dataset, name, telemetry=telemetry)
        assert _canon(invariant_view(bare)) == _canon(invariant_view(observed))
        # the promise is specifically about these two:
        assert bare["partition"]["digest"] == observed["partition"]["digest"]
        assert _canon(bare["quality"]) == _canon(observed["quality"])

    @pytest.mark.parametrize("name", DATASETS)
    def test_resumed_vs_uninterrupted(self, datasets, name, tmp_path):
        dataset = datasets[name]
        uninterrupted = _run(dataset, name)

        engine = Reconciler(dataset.store, _domain(name), EngineConfig())
        engine.attach_convergence(dataset.gold.entity_of, every=25)
        checkpointer = Checkpointer(tmp_path / name, every=10)
        with pytest.raises(InjectedFault):
            engine.run(checkpointer=checkpointer, step_hook=CrashAtStep(35))
        resumed = Reconciler.resume(
            checkpointer.path, store=dataset.store, domain=_domain(name)
        )
        resumed.attach_convergence(dataset.gold.entity_of, every=25)
        result = resumed.run()
        manifest = build_manifest(
            dataset=dataset, reconciler=resumed, result=result, resumed=True
        )
        assert manifest["execution"]["resumed"] is True
        assert _canon(invariant_view(uninterrupted)) == _canon(
            invariant_view(manifest)
        )
        assert uninterrupted["partition"]["digest"] == manifest["partition"]["digest"]
        assert _canon(uninterrupted["quality"]) == _canon(manifest["quality"])
        # samples are keyed by the checkpointed recomputation counter,
        # so the resumed run reproduces them exactly, boundary included
        assert uninterrupted["convergence"] == manifest["convergence"]


def _recount(engine, gold):
    """Pairwise scores of *engine*'s current union-find, from scratch:
    the per-class recount convergence samples used to take."""
    per_class: dict[str, dict[str, list[str]]] = {}
    for reference in engine.store:
        if reference.ref_id in gold:
            per_class.setdefault(reference.class_name, {}).setdefault(
                engine.uf.find(reference.ref_id), []
            ).append(reference.ref_id)
    return combine_scores(
        pairwise_scores(groups.values(), gold) for groups in per_class.values()
    )


def _check_every_sample(engine, gold):
    """Make each convergence sample *engine* takes assert that the
    union-find's pair counts equal a from-scratch recount; returns the
    list of checked samples."""
    checked = []
    sample = engine._sample_convergence

    def checking_sample(*, final=False):
        before = list(engine.stats.convergence_samples)
        sample(final=final)
        samples = engine.stats.convergence_samples
        if samples == before:
            return
        scratch = _recount(engine, gold)
        counts = engine.convergence_counts
        assert (counts.true_pairs, counts.predicted_pairs, counts.gold_pairs) == (
            scratch.true_pairs,
            scratch.predicted_pairs,
            scratch.gold_pairs,
        )
        assert samples[-1]["precision"] == round(scratch.precision, 6)
        assert samples[-1]["recall"] == round(scratch.recall, 6)
        checked.append(samples[-1])

    engine._sample_convergence = checking_sample
    return checked


class TestConvergenceCounts:
    @pytest.mark.parametrize("name", DATASETS)
    def test_every_sample_equals_a_recount(self, datasets, name):
        dataset = datasets[name]
        engine = Reconciler(dataset.store, _domain(name), EngineConfig())
        engine.attach_convergence(dataset.gold.entity_of, every=25)
        checked = _check_every_sample(engine, dataset.gold.entity_of)
        engine.run()
        assert len(checked) >= 2
        assert checked == engine.stats.convergence_samples
        assert checked[-1]["precision"] < 1.0 or checked[-1]["recall"] < 1.0

    @pytest.mark.parametrize("name", DATASETS)
    def test_every_sample_equals_a_recount_after_resume(
        self, datasets, name, tmp_path
    ):
        dataset = datasets[name]
        gold = dataset.gold.entity_of
        uninterrupted = _run(dataset, name)
        engine = Reconciler(dataset.store, _domain(name), EngineConfig())
        engine.attach_convergence(gold, every=25)
        checkpointer = Checkpointer(tmp_path / name, every=10)
        with pytest.raises(InjectedFault):
            engine.run(checkpointer=checkpointer, step_hook=CrashAtStep(35))
        resumed = Reconciler.resume(
            checkpointer.path, store=dataset.store, domain=_domain(name)
        )
        resumed.attach_convergence(gold, every=25)
        checked = _check_every_sample(resumed, gold)
        resumed.run()
        assert checked
        assert resumed.stats.convergence_samples == uninterrupted["convergence"]

    def test_counts_follow_a_union_find_restored_after_attach(self, datasets, tmp_path):
        dataset = datasets["B"]
        gold = dataset.gold.entity_of
        uninterrupted = _run(dataset, "B")
        engine = Reconciler(dataset.store, _domain("B"), EngineConfig())
        engine.attach_convergence(gold, every=25)
        checkpointer = Checkpointer(tmp_path, every=10)
        with pytest.raises(InjectedFault):
            engine.run(checkpointer=checkpointer, step_hook=CrashAtStep(35))
        # Attach first, restore second: restore must recount over the
        # union-find it installs.
        restored = Reconciler(dataset.store, _domain("B"), EngineConfig())
        restored.attach_convergence(gold, every=25)
        restore_engine(restored, load_checkpoint(checkpointer.path))
        checked = _check_every_sample(restored, gold)
        restored.run()
        assert checked
        assert restored.stats.convergence_samples == uninterrupted["convergence"]

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_every_sample_equals_a_recount_across_incremental_adds(self, variant):
        dataset = generate_pim_dataset(variant, scale=0.15)
        gold = dataset.gold.entity_of
        base, batches = split_into_batches(dataset, held_out=60, batch_size=10)
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        engine = incremental.reconciler
        engine.attach_convergence(gold, every=5)
        checked = _check_every_sample(engine, gold)
        incremental.initial()
        base_gold_pairs = engine.convergence_counts.gold_pairs
        for batch in batches:
            before = len(checked)
            incremental.add(batch)
            assert len(checked) > before  # at least the final sample
        # the batches brought gold pairs of their own
        assert engine.convergence_counts.gold_pairs > base_gold_pairs

    def test_attaching_twice_counts_once(self, datasets):
        dataset = datasets["B"]
        once = _run(dataset, "B")
        engine = Reconciler(dataset.store, _domain("B"), EngineConfig())
        engine.attach_convergence(dataset.gold.entity_of, every=25)
        engine.attach_convergence(dataset.gold.entity_of, every=25)
        checked = _check_every_sample(engine, dataset.gold.entity_of)
        engine.run()
        assert checked == once["convergence"]
        # the engine's cache invalidation plus one set of counts
        assert len(engine.uf._listeners) == 2

    @pytest.mark.parametrize("name", DATASETS)
    def test_final_sample_is_the_micro_averaged_quality(self, datasets, name):
        dataset = datasets[name]
        gold = dataset.gold.entity_of
        engine = Reconciler(dataset.store, _domain(name), EngineConfig())
        engine.attach_convergence(gold, every=25)
        result = engine.run()
        manifest = build_manifest(dataset=dataset, reconciler=engine, result=result)
        per_class = {
            class_name: pairwise_scores(result.partitions[class_name], gold)
            for class_name in manifest["quality"]
        }
        for class_name, scores in per_class.items():
            reported = manifest["quality"][class_name]["pairwise"]
            assert reported["precision"] == round(scores.precision, 6)
            assert reported["recall"] == round(scores.recall, 6)
        overall = combine_scores(per_class.values())
        final = manifest["convergence"][-1]
        assert final["precision"] == round(overall.precision, 6)
        assert final["recall"] == round(overall.recall, 6)

    def test_iterate_never_walks_the_store(self, datasets, monkeypatch):
        dataset = datasets["B"]
        engine = Reconciler(dataset.store, _domain("B"), EngineConfig())
        engine.attach_convergence(dataset.gold.entity_of, every=1)
        walks = []
        iterating = [False]
        store_iter = ReferenceStore.__iter__

        def spy(store):
            if iterating[0]:
                walks.append(store)
            return store_iter(store)

        build, result = engine.build, engine._result

        def build_then_watch():
            build()
            iterating[0] = True

        def stop_watching():
            iterating[0] = False
            return result()

        monkeypatch.setattr(ReferenceStore, "__iter__", spy)
        engine.build = build_then_watch
        engine._result = stop_watching
        engine.run()
        assert not iterating[0]
        assert len(engine.stats.convergence_samples) > 100
        assert walks == [], f"the store was walked {len(walks)} times while iterating"
