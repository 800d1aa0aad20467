"""Seeded inputs and output checks for the benchmark.

Inputs are generated here, before any timing, and written with
``save_dataset``; the program only reads them back. Each operation of a
run uses its own dataset, generated from ``(seed, index)``, so a run
averages over several draws of the generator instead of one.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


def sub_seed(seed: int, index: int) -> int:
    """Generator seed of the *index*-th dataset of a run."""
    return seed * 1000 + index


@dataclass
class Inputs:
    """One generated dataset on disk plus what the checks need."""

    directory: Path
    refs: int
    class_of: dict[str, str]
    entity_of: dict[str, str]
    #: held-out references (updates workload only).
    updates_path: Path | None = None
    held_out: int = 0


def generate(workload: dict, seed: int):
    from repro.datasets import generate_cora_dataset, generate_pim_dataset
    from repro.datasets.cora import CoraConfig

    if workload["dataset"] == "cora":
        return generate_cora_dataset(CoraConfig(seed=seed))
    return generate_pim_dataset("B", scale=workload["scale"], seed=seed)


def write_inputs(workload: dict, seed: int, directory: Path) -> Inputs:
    from repro.datasets.io import save_dataset

    dataset = generate(workload, seed)
    gold = dataset.gold
    if "held_out" not in workload:
        save_dataset(dataset, directory)
        return Inputs(directory, len(dataset.store), dict(gold.class_of), dict(gold.entity_of))
    base, batch = split_held_out(dataset, workload["held_out"])
    from repro.core.references import ReferenceStore
    from repro.datasets.dataset import Dataset
    from repro.datasets.gold import GoldStandard
    from repro.datasets.io import reference_to_dict

    base_gold = GoldStandard()
    for reference in base:
        ref_id = reference.ref_id
        base_gold.add(ref_id, gold.entity_of[ref_id], gold.class_of[ref_id], gold.source_of[ref_id])
    save_dataset(
        Dataset(name=dataset.name, store=ReferenceStore(dataset.store.schema, base), gold=base_gold),
        directory,
    )
    updates_path = directory / "updates.jsonl"
    with open(updates_path, "w") as handle:
        for reference in batch:
            handle.write(json.dumps(reference_to_dict(reference)) + "\n")
    return Inputs(
        directory,
        len(dataset.store),
        dict(gold.class_of),
        dict(gold.entity_of),
        updates_path=updates_path,
        held_out=len(batch),
    )


def split_held_out(dataset, count: int):
    """Hold out the last *count* Person references (store order).

    Links into the held-out set are stripped on both sides, so the base
    store and every batch validate on their own."""
    schema = dataset.store.schema
    persons = [ref for ref in dataset.store if ref.class_name == "Person"]
    held_out_ids = {ref.ref_id for ref in persons[-count:]}
    base, batch = [], []
    for ref in dataset.store:
        values = {}
        for attr, vals in ref.values.items():
            if schema.cls(ref.class_name).attribute(attr).is_association:
                vals = tuple(v for v in vals if v not in held_out_ids)
                if not vals:
                    continue
            values[attr] = vals
        stripped = type(ref)(ref.ref_id, ref.class_name, values, ref.source)
        (batch if ref.ref_id in held_out_ids else base).append(stripped)
    return base, batch


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
@dataclass
class PairCounts:
    """Pairwise counts of one partition against gold, pooled over classes."""

    true_pairs: int = 0
    predicted_pairs: int = 0
    gold_pairs: int = 0

    def add(self, other: "PairCounts") -> None:
        self.true_pairs += other.true_pairs
        self.predicted_pairs += other.predicted_pairs
        self.gold_pairs += other.gold_pairs

    def f1(self) -> float:
        precision = self.true_pairs / self.predicted_pairs if self.predicted_pairs else 1.0
        recall = self.true_pairs / self.gold_pairs if self.gold_pairs else 1.0
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def check_partition(partitions: dict, inputs: Inputs) -> tuple[list[str], PairCounts]:
    """Problems found in *partitions*, and its pair counts against gold.

    The partition must cover every input reference exactly once, and a
    cluster may only hold references of the class it is filed under.
    """
    problems: list[str] = []
    seen: Counter = Counter()
    counts = PairCounts()
    for class_name, clusters in partitions.items():
        for cluster in clusters:
            seen.update(cluster)
            wrong = [ref for ref in cluster if inputs.class_of.get(ref) != class_name]
            if wrong:
                problems.append(f"{class_name} cluster holds {wrong[0]} of another class")
            entities = Counter(inputs.entity_of[ref] for ref in cluster if ref in inputs.entity_of)
            counts.predicted_pairs += _pairs(len(cluster))
            counts.true_pairs += sum(_pairs(n) for n in entities.values())
    twice = [ref for ref, n in seen.items() if n > 1]
    if twice:
        problems.append(f"{len(twice)} refs in more than one cluster, e.g. {twice[0]}")
    missing = set(inputs.class_of) - set(seen)
    if missing:
        problems.append(f"{len(missing)} refs in no cluster")
    gold_groups = Counter((inputs.class_of[ref], entity) for ref, entity in inputs.entity_of.items())
    counts.gold_pairs = sum(_pairs(n) for n in gold_groups.values())
    return problems, counts


def digest(partitions: dict) -> str:
    text = json.dumps(partitions, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
