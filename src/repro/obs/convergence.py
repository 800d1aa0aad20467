"""Pairwise precision/recall against gold, kept current merge by merge.

A run manifest's ``convergence`` curve samples the paper's pairwise
precision and recall (§5.2) while the engine iterates. Recounting the
partition for every sample costs O(store) per sample, so a run with
many samples pays quadratically. :class:`ConvergenceCounts` instead
keeps the three totals :func:`~repro.evaluation.metrics.pairwise_scores`
computes — true, predicted and gold pairs — and updates them from the
union-find's merge listener:

* per cluster root, a histogram ``(class, gold entity) -> references``
  and a per-class size, both over the cluster's references that have
  a gold entry;
* a union of clusters A and B adds Σₖ A[k]·B[k] true pairs and
  Σ_c |A_c|·|B_c| predicted pairs, then folds the smaller histogram
  into the larger one.

Each union creates exactly the cross pairs between its two sides, and
a pair is counted by ``pairwise_scores`` (per class, summed by
``combine_scores``) exactly when both references have gold entries and
share a cluster and a class; it is true when they also share a gold
entity. So the totals always equal a from-scratch recount over the
same union-find state, and reading them is O(1).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..core.partition import UnionFind
from ..core.references import Reference

__all__ = ["ConvergenceCounts"]


class ConvergenceCounts:
    """True/predicted/gold pair totals of a union-find against gold.

    Counts the *references* given (a store's contents) plus any later
    passed to :meth:`add`; references without a gold entry are
    ignored, as :func:`~repro.evaluation.metrics.pairwise_scores`
    ignores them. Listens to *uf* until :meth:`detach`.
    """

    def __init__(
        self, gold: Mapping[str, str], uf: UnionFind, references: Iterable[Reference]
    ) -> None:
        self.gold = gold
        self._uf = uf
        #: cluster root -> (class, gold entity) -> gold references
        self._entities: dict[str, dict[tuple[str, str], int]] = {}
        #: cluster root -> class -> gold references
        self._classes: dict[str, dict[str, int]] = {}
        #: (class, gold entity) -> gold references in the store
        self._gold_sizes: dict[tuple[str, str], int] = {}
        self.true_pairs = 0
        self.predicted_pairs = 0
        self.gold_pairs = 0
        for reference in references:
            ref_id = reference.ref_id
            # A reference the union-find has not seen is its own root;
            # looking it up would register it.
            self.add(reference, uf.find(ref_id) if ref_id in uf else ref_id)
        uf.add_union_listener(self._on_union)

    def add(self, reference: Reference, root: str) -> None:
        """Count a reference that joined the store, in cluster *root*."""
        entity = self.gold.get(reference.ref_id)
        if entity is None:
            return
        key = (reference.class_name, entity)
        entities = self._entities.setdefault(root, {})
        count = entities.get(key, 0)
        self.true_pairs += count
        entities[key] = count + 1
        classes = self._classes.setdefault(root, {})
        count = classes.get(reference.class_name, 0)
        self.predicted_pairs += count
        classes[reference.class_name] = count + 1
        count = self._gold_sizes.get(key, 0)
        self.gold_pairs += count
        self._gold_sizes[key] = count + 1

    def _on_union(self, survivor: str, absorbed: str) -> None:
        absorbed_entities = self._entities.pop(absorbed, None)
        if absorbed_entities is None:
            return
        absorbed_classes = self._classes.pop(absorbed)
        entities = self._entities.get(survivor)
        if entities is None:
            self._entities[survivor] = absorbed_entities
            self._classes[survivor] = absorbed_classes
            return
        classes = self._classes[survivor]
        if len(entities) < len(absorbed_entities):
            entities, absorbed_entities = absorbed_entities, entities
            self._entities[survivor] = entities
        if len(classes) < len(absorbed_classes):
            classes, absorbed_classes = absorbed_classes, classes
            self._classes[survivor] = classes
        for key, count in absorbed_entities.items():
            present = entities.get(key, 0)
            self.true_pairs += present * count
            entities[key] = present + count
        for class_name, count in absorbed_classes.items():
            present = classes.get(class_name, 0)
            self.predicted_pairs += present * count
            classes[class_name] = present + count

    def detach(self) -> None:
        """Stop following the union-find's merges."""
        self._uf.remove_union_listener(self._on_union)

    @property
    def precision(self) -> float:
        return self.true_pairs / self.predicted_pairs if self.predicted_pairs else 1.0

    @property
    def recall(self) -> float:
        return self.true_pairs / self.gold_pairs if self.gold_pairs else 1.0
