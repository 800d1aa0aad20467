"""Tests for incremental reconciliation (§7 future work)."""

import copy

import pytest

from repro.core import (
    EngineConfig,
    IncrementalReconciler,
    Reconciler,
    Reference,
    ReferenceStore,
    SchemaError,
)
from repro.core import engine as engine_module
from repro.core.nodes import EdgeType
from repro.datasets import generate_pim_dataset
from repro.domains import PimDomainModel
from repro.runtime import (
    GuardTripped,
    RunGuard,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)

from .conftest import BAD_BATCH_TAILS, example1_references


def split_example1():
    """Base = the bibliography world; batch = the email references."""
    refs = example1_references()
    batch_ids = {"p7", "p8", "p9"}
    base = [ref for ref in refs if ref.ref_id not in batch_ids]
    batch = [ref for ref in refs if ref.ref_id in batch_ids]
    return base, batch


class TestIncremental:
    def test_matches_full_rerun_on_example1(self):
        base, batch = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        incremental.initial()
        result = incremental.add(batch)
        assert result.clusters("Person") == [
            ["p1", "p4"],
            ["p2", "p5", "p8", "p9"],
            ["p3", "p6", "p7"],
        ]

    def test_initial_required_before_add(self):
        base, batch = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        with pytest.raises(RuntimeError):
            incremental.add(batch)

    def test_initial_only_once(self):
        base, _ = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        incremental.initial()
        with pytest.raises(RuntimeError):
            incremental.initial()

    def test_empty_batch_is_noop(self):
        base, _ = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        before = incremental.initial().partitions
        after = incremental.add([]).partitions
        assert before == after

    def test_key_agreement_merges_new_reference(self):
        base, _ = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        incremental.initial()
        first = incremental.add(
            [Reference("x1", "Person", {"name": ("Eugene Wong",), "email": ("ew@mit.edu",)})]
        )
        assert first.same_entity("x1", "p3")
        second = incremental.add(
            [Reference("x2", "Person", {"email": ("ew@mit.edu",)})]
        )
        assert second.same_entity("x2", "x1")
        assert second.same_entity("x2", "p3")

    def test_new_constraints_installed(self):
        base, _ = split_example1()
        domain = PimDomainModel()
        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), domain, EngineConfig()
        )
        incremental.initial()
        # A new article whose authors are two existing clusters: they
        # must never merge afterwards (constraint 1).
        result = incremental.add(
            [
                Reference("x1", "Person", {"name": ("Robert Epstein",)}),
                Reference("x2", "Person", {"name": ("Eugene Wong",)}),
                Reference(
                    "ax",
                    "Article",
                    {
                        "title": ("A new system",),
                        "authoredBy": ("x1", "x2"),
                    },
                ),
            ]
        )
        assert result.same_entity("x1", "p1")
        assert result.same_entity("x2", "p3")
        assert not result.same_entity("x1", "x2")

    def test_less_work_than_full_rerun(self, tiny_pim_a):
        """Folding in a small batch recomputes much less than a re-run."""
        domain = PimDomainModel()
        refs = list(tiny_pim_a.store)
        person_refs = [r for r in refs if r.class_name == "Person"]
        # Hold out a handful of refs nothing points at.
        pointed = set()
        for ref in refs:
            for attr, values in ref.values.items():
                if tiny_pim_a.store.schema.cls(ref.class_name).attribute(attr).is_association:
                    pointed.update(values)
        batch_ids = [r.ref_id for r in person_refs if r.ref_id not in pointed][:15]
        batch_set = set(batch_ids)

        def strip(ref):
            values = {}
            for attr, vals in ref.values.items():
                if tiny_pim_a.store.schema.cls(ref.class_name).attribute(attr).is_association:
                    vals = tuple(v for v in vals if v not in batch_set)
                    if not vals:
                        continue
                values[attr] = vals
            return Reference(ref.ref_id, ref.class_name, values, ref.source)

        base = [strip(r) for r in refs if r.ref_id not in batch_set]
        batch = [strip(r) for r in refs if r.ref_id in batch_set]

        incremental = IncrementalReconciler(
            ReferenceStore(domain.schema, base), PimDomainModel(), EngineConfig()
        )
        incremental.initial()
        base_recomp = incremental.reconciler.stats.recomputations
        incremental.add(batch)
        delta = incremental.reconciler.stats.recomputations - base_recomp

        full = Reconciler(
            ReferenceStore(domain.schema, base + batch),
            PimDomainModel(),
            EngineConfig(),
        )
        full.run()
        assert delta < full.stats.recomputations * 0.5


def fresh_incremental(references):
    domain = PimDomainModel()
    incremental = IncrementalReconciler(
        ReferenceStore(domain.schema, references), domain, EngineConfig()
    )
    incremental.initial()
    return incremental


class TestRejectedBatch:
    @pytest.mark.parametrize("kind", sorted(BAD_BATCH_TAILS))
    def test_rejected_batch_leaves_reconciler_usable(self, kind):
        base, batch = split_example1()
        # A valid reference ahead of the bad one must not be kept either.
        prefix = Reference("x1", "Person", {"name": ("Eugene Wong",)})
        incremental = fresh_incremental(base)
        size = len(incremental.store)
        with pytest.raises((SchemaError, ValueError)):
            incremental.add([prefix, BAD_BATCH_TAILS[kind]])
        assert len(incremental.store) == size
        assert "x1" not in incremental.store
        assert "x1" not in incremental.reconciler._members

        never_bad = fresh_incremental(base)
        assert incremental.add(batch).partitions == never_bad.add(batch).partitions
        # The rejected batch's valid reference can still arrive later.
        assert (
            incremental.add([prefix]).partitions
            == never_bad.add([prefix]).partitions
        )


def oracle_weak_edges(engine, per_class_nodes):
    """Brute force: every weak edge a whole-store owner scan gives the
    nodes in *per_class_nodes* (as contact pairs), as directed keys."""
    expected = set()
    for dependency in engine.domain.weak_dependencies():
        if not engine.config.weak_enabled(dependency.class_name):
            continue
        owners = {}
        for reference in engine.store:
            if reference.class_name != dependency.class_name:
                continue
            for attribute in dependency.attrs:
                for contact_id in reference.get(attribute):
                    owners.setdefault(engine._elem(contact_id), set()).add(
                        engine._elem(reference.ref_id)
                    )
        for node in per_class_nodes.get(dependency.class_name, ()):
            for owner_l in owners.get(node.left, ()):
                for owner_r in owners.get(node.right, ()):
                    if owner_l == owner_r:
                        continue
                    owner_node = engine.graph.get(owner_l, owner_r)
                    if owner_node is None or owner_node is node:
                        continue
                    expected.add((node.key, owner_node.key))
                    expected.add((owner_node.key, node.key))
    return expected


def split_into_batches(dataset, held_out: int, batch_size: int):
    """Base plus batches from every fifth reference (store order), with
    links kept only to the base and to the same or earlier batches, so
    the base and each prefix of batches validate on their own."""
    references = list(dataset.store)
    held = [ref.ref_id for ref in references[::5]][:held_out]
    batch_of = {ref_id: index // batch_size for index, ref_id in enumerate(held)}
    schema = dataset.store.schema
    base, batches = [], [[] for _ in range(-(-len(held) // batch_size))]
    for ref in references:
        own = batch_of.get(ref.ref_id, -1)
        values = {}
        for attr, vals in ref.values.items():
            if schema.cls(ref.class_name).attribute(attr).is_association:
                vals = tuple(v for v in vals if batch_of.get(v, -1) <= own)
            values[attr] = vals
        kept = Reference(ref.ref_id, ref.class_name, values, ref.source)
        (base if own < 0 else batches[own]).append(kept)
    return base, batches


class TestWeakWiring:
    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_add_wires_the_weak_edges_of_a_whole_store_scan(self, variant):
        dataset = generate_pim_dataset(variant, scale=0.15)
        base, batches = split_into_batches(dataset, held_out=60, batch_size=10)
        incremental = fresh_incremental(base)
        engine = incremental.reconciler
        wire = engine._wire_weak_edges
        add_edge = engine.graph.add_edge
        checked = []

        def checked_wire(per_class_nodes):
            expected = oracle_weak_edges(engine, per_class_nodes)
            created = set()

            def spy(source, target, edge_type):
                if edge_type is EdgeType.WEAK:
                    created.add((source.key, target.key))
                add_edge(source, target, edge_type)

            engine.graph.add_edge = spy
            try:
                wire(per_class_nodes)
            finally:
                del engine.graph.add_edge
            checked.append((expected, created))

        engine._wire_weak_edges = checked_wire
        for batch in batches:
            incremental.add(batch)
        assert len(checked) == len(batches)
        for expected, created in checked:
            assert created == expected
        assert engine.stats.skipped_weak_fanout == 0
        assert sum(len(expected) for expected, _ in checked) > 0

    def test_add_never_scans_a_class(self, monkeypatch, tiny_pim_a):
        base, batches = split_into_batches(tiny_pim_a, held_out=30, batch_size=10)
        incremental = fresh_incremental(base)

        def forbidden(self, class_name):
            raise AssertionError(f"add() scanned class {class_name!r}")

        monkeypatch.setattr(ReferenceStore, "of_class", forbidden)
        for batch in batches:
            incremental.add(batch)

    def test_fanout_ceiling_recorded_as_degradation(self, monkeypatch):
        base, batch = split_example1()
        incremental = fresh_incremental(base)
        stats = incremental.reconciler.stats
        assert stats.degradations == []
        monkeypatch.setattr(engine_module, "_MAX_WEAK_FANOUT", 0)
        result = incremental.add(batch)
        skipped = stats.skipped_weak_fanout
        assert skipped > 0
        assert [event.kind for event in result.degradations] == ["weak_fanout"]
        assert result.degradations[0].detail.startswith(f"skipped {skipped} ")
        # A later batch records only its own skips: x2 lists x1, so the
        # new pair of x1 has owners on both sides.
        result = incremental.add(
            [
                Reference("x1", "Person", {"name": ("Michael Stonebraker",)}),
                Reference(
                    "x2", "Person", {"name": ("Robert Epstein",), "coAuthor": ("x1",)}
                ),
            ]
        )
        later = stats.skipped_weak_fanout - skipped
        assert later > 0
        assert [event.kind for event in result.degradations] == ["weak_fanout"] * 2
        assert result.degradations[1].detail.startswith(f"skipped {later} ")


def store_walk_partitions(engine):
    """Oracle: the partition assembled from scratch, grouping every
    reference of the store under its union-find root."""
    clusters = {class_name: {} for class_name in engine.store.schema.class_names}
    for reference in engine.store:
        root = engine.uf.find(reference.ref_id)
        clusters[reference.class_name].setdefault(root, []).append(reference.ref_id)
    return {
        class_name: sorted((sorted(group) for group in groups.values()), key=lambda g: g[0])
        for class_name, groups in clusters.items()
    }


def checked_incremental(references, config=None):
    """An initialised reconciler whose initial() result matched the oracle."""
    domain = PimDomainModel()
    incremental = IncrementalReconciler(
        ReferenceStore(domain.schema, references), domain, config or EngineConfig()
    )
    result = incremental.initial()
    assert result.partitions == store_walk_partitions(incremental.reconciler)
    return incremental


def add_checked(incremental, batch):
    result = incremental.add(batch)
    assert result.partitions == store_walk_partitions(incremental.reconciler)
    return result


CONFIGS = {
    "default": EngineConfig(),
    "no_enrich": EngineConfig(enrich=False),
    "no_constraints": EngineConfig(constraints=False),
}


class TestResultAssembly:
    """Every result read from the cluster index equals the store walk."""

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("variant", ["A", "B", "C", "D"])
    def test_every_result_matches_the_store_walk(self, variant, config):
        dataset = generate_pim_dataset(variant, scale=0.15)
        base, batches = split_into_batches(dataset, held_out=60, batch_size=10)
        incremental = checked_incremental(base, CONFIGS[config])
        for batch in batches:
            add_checked(incremental, batch)

    def test_restore_from_a_mid_fold_checkpoint(self, tmp_path):
        dataset = generate_pim_dataset("B", scale=0.15)
        base, batches = split_into_batches(dataset, held_out=60, batch_size=10)
        incremental = checked_incremental(base)
        engine = incremental.reconciler
        for batch in batches[:2]:
            add_checked(incremental, batch)
        # Checkpoint the third batch's fold before its first merge...
        path = tmp_path / "mid_fold.json"
        run = engine.run

        def run_and_checkpoint():
            def hook(engine, step):
                if step == 0:
                    save_checkpoint(engine, path)

            return run(step_hook=hook)

        engine.run = run_and_checkpoint
        folded = add_checked(incremental, batches[2])
        del engine.run
        # ...and rewind the same engine to it: its union-find forgets
        # merges the cluster index has already seen.
        restore_engine(engine, load_checkpoint(path))
        rewound = engine.partial_result().partitions
        assert rewound == store_walk_partitions(engine)
        assert rewound != folded.partitions
        assert engine.run().partitions == store_walk_partitions(engine)
        assert engine.partial_result().partitions == folded.partitions
        for batch in batches[3:]:
            add_checked(incremental, batch)

    def test_partial_result_after_a_guard_trip(self):
        dataset = generate_pim_dataset("B", scale=0.15)
        base, batches = split_into_batches(dataset, held_out=60, batch_size=10)
        incremental = checked_incremental(base)
        engine = incremental.reconciler
        add_checked(incremental, batches[0])
        budget = engine.stats.recomputations + 3
        run = engine.run
        engine.run = lambda: run(
            guard=RunGuard(max_recomputations=budget), raise_on_trip=True
        )
        with pytest.raises(GuardTripped):
            incremental.add(batches[1])
        del engine.run
        partial = engine.partial_result()
        assert not partial.completed
        assert partial.partitions == store_walk_partitions(engine)
        assert engine.run().partitions == store_walk_partitions(engine)
        for batch in batches[2:]:
            add_checked(incremental, batch)

    def test_a_result_is_not_changed_by_later_batches(self):
        dataset = generate_pim_dataset("B", scale=0.15)
        base, batches = split_into_batches(dataset, held_out=60, batch_size=10)
        incremental = fresh_incremental(base)
        results = [incremental.reconciler.partial_result()]
        snapshots = [copy.deepcopy(results[0].partitions)]
        for batch in batches:
            results.append(incremental.add(batch))
            snapshots.append(copy.deepcopy(results[-1].partitions))
        for result, snapshot in zip(results, snapshots):
            assert result.partitions == snapshot
        # Later batches did merge into clusters the first result holds.
        final = {tuple(c) for clusters in results[-1].partitions.values() for c in clusters}
        first = [tuple(c) for clusters in results[0].partitions.values() for c in clusters]
        assert any(cluster not in final for cluster in first)

    def test_listener_count_stays_constant(self, tmp_path):
        dataset = generate_pim_dataset("B", scale=0.15)
        base, batches = split_into_batches(dataset, held_out=50, batch_size=1)
        incremental = fresh_incremental(base)
        engine = incremental.reconciler
        listeners = len(engine.uf._listeners)
        engine.partial_result()
        path = save_checkpoint(engine, tmp_path / "checkpoint.json")
        restore_engine(engine, load_checkpoint(path))
        assert len(engine.uf._listeners) == listeners
        engine.run()
        engine.partial_result()
        assert len(engine.uf._listeners) == listeners
        assert len(batches) == 50
        for batch in batches:
            incremental.add(batch)
            assert len(engine.uf._listeners) == listeners

    def test_add_never_walks_the_store(self, monkeypatch):
        dataset = generate_pim_dataset("B", scale=0.5)
        base, batches = split_into_batches(dataset, held_out=100, batch_size=5)
        incremental = fresh_incremental(base)
        walks = []
        store_iter = ReferenceStore.__iter__

        def spy(store):
            walks.append(store)
            return store_iter(store)

        monkeypatch.setattr(ReferenceStore, "__iter__", spy)
        assert len(batches) == 20
        for batch in batches:
            incremental.add(batch)
        assert walks == [], f"add() walked the store {len(walks)} times"
