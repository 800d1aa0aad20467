"""Incremental reconciliation (the paper's §7 future work, item 1).

When new references arrive after a dataset has been reconciled, a full
re-run wastes all previous work. :class:`IncrementalReconciler` keeps a
live :class:`~repro.core.engine.Reconciler` and folds batches of new
references into it:

* new references are blocked against the retained per-class indexes,
  so candidate pairs form only between new references and their
  bucket-mates (new-vs-old and new-vs-new),
* new pair nodes are scored with enriched cluster values, so a new
  reference immediately benefits from everything already merged,
* only the new nodes enter the queue; propagation then touches exactly
  the region of the graph the new evidence can reach.

Key-value agreement is resolved through the normal key channel (score
1.0 forces a merge) rather than the build-time pre-merge, so no special
casing is needed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .engine import Reconciler
from .model import DomainModel, EngineConfig
from .nodes import NodeStatus, PairNode, pair_key
from .references import Reference, ReferenceStore
from .result import ReconciliationResult

__all__ = ["IncrementalReconciler"]


class IncrementalReconciler:
    """Reconcile a base dataset once, then absorb updates cheaply."""

    def __init__(
        self,
        store: ReferenceStore,
        domain: DomainModel,
        config: EngineConfig | None = None,
    ) -> None:
        self._reconciler = Reconciler(store, domain, config)
        self._initialized = False

    @property
    def reconciler(self) -> Reconciler:
        return self._reconciler

    @property
    def store(self) -> ReferenceStore:
        return self._reconciler.store

    def initial(self) -> ReconciliationResult:
        """Run the base reconciliation; must be called exactly once."""
        if self._initialized:
            raise RuntimeError("initial() already ran; use add()")
        self._initialized = True
        return self._reconciler.run()

    def add(self, new_references: Sequence[Reference]) -> ReconciliationResult:
        """Fold *new_references* into the reconciled dataset.

        Returns the updated full partition. Its cluster lists are
        shared with earlier and later results (see
        :class:`~repro.core.result.ReconciliationResult`). A batch that
        fails the store's checks (see :meth:`ReferenceStore.extend`)
        raises and leaves the reconciler as it was, so later batches
        still fold in.

        Cost per batch: checking, blocking, scoring and wiring the batch
        are proportional to the batch and its bucket-mates; iterate
        touches only the graph region the new nodes reach. The returned
        partition comes from the engine's cluster index: each new
        reference enters it as a singleton here, each merge replaces
        two clusters by one, and the result copies one list of clusters
        per class. Nothing in ``add()`` walks the whole store.
        """
        if not self._initialized:
            raise RuntimeError("call initial() before add()")
        engine = self._reconciler
        engine.store.extend(new_references)
        counts = engine.convergence_counts
        clusters = engine._clusters
        for reference in new_references:
            root = engine.uf.find(reference.ref_id)
            engine._members.setdefault(reference.ref_id, [reference.ref_id])
            if counts is not None:
                counts.add(reference, root)
            if clusters is not None:
                clusters.add(reference, root)
        if engine._weak_owners is not None:
            engine._index_weak_owners(new_references)

        new_nodes_by_class: dict[str, list[PairNode]] = {}
        for class_name in engine.domain.class_order():
            incoming = [
                reference
                for reference in new_references
                if reference.class_name == class_name
            ]
            if incoming:
                new_nodes_by_class[class_name] = self._build_new_nodes(
                    class_name, incoming
                )
        skipped = engine.stats.skipped_weak_fanout
        engine._wire_association_edges(new_nodes_by_class)
        engine._wire_weak_edges(new_nodes_by_class)
        engine._note_weak_fanout(engine.stats.skipped_weak_fanout - skipped)
        if engine.config.constraints:
            self._install_new_constraints(new_references)
        for class_name in engine.domain.class_order():
            for node in new_nodes_by_class.get(class_name, ()):
                if node.status is NodeStatus.ACTIVE:
                    engine.queue.push_back(node.key)
        return engine.run()

    # ------------------------------------------------------------------
    def _build_new_nodes(
        self, class_name: str, incoming: Sequence[Reference]
    ) -> list[PairNode]:
        engine = self._reconciler
        index = engine._block_indexes.get(class_name)
        if index is None:
            raise RuntimeError(
                "incremental add requires a built engine with retained "
                "blocking indexes"
            )
        channels = engine.enabled_atomic_channels(class_name)
        nodes: list[PairNode] = []
        seen: set[tuple[str, str]] = set()
        for reference in incoming:
            element = engine._elem(reference.ref_id)
            raw_pairs = index.add_and_pairs(
                element, engine.domain.blocking_keys(reference)
            )
            for left, right in raw_pairs:
                # Index entries may be roots that were absorbed since;
                # resolve to current cluster roots.
                current = pair_key(engine.uf.find(left), engine.uf.find(right))
                if current[0] == current[1] or current in seen:
                    continue
                seen.add(current)
                engine.stats.candidate_pairs += 1
                existing = engine.graph.get_key(current)
                if existing is not None:
                    # The new reference hit a pre-existing pair (both
                    # sides already known): refresh handled elsewhere.
                    continue
                node = engine._make_pair_node(
                    class_name, current[0], current[1], channels
                )
                if node is not None:
                    nodes.append(node)
        return nodes

    def _install_new_constraints(self, new_references: Iterable[Reference]) -> None:
        engine = self._reconciler
        for left, right in engine.domain.distinct_pairs(new_references):
            element_l = engine._elem(left)
            element_r = engine._elem(right)
            if element_l == element_r or engine.uf.connected(element_l, element_r):
                continue
            engine.uf.add_enemy(element_l, element_r)
            engine.stats.constraint_pairs += 1
            node = engine.graph.get(element_l, element_r)
            if node is not None:
                node.status = NodeStatus.NON_MERGE
                engine.queue.discard(node.key)
