"""References and the reference store.

A :class:`Reference` is what an extractor produces: a partial instance
of a schema class, holding a (possibly empty) *set* of values for each
attribute. Atomic values are strings; association values are the ids of
other references.

References are immutable; all merging state (which references currently
form one cluster, what the pooled attribute values of a cluster are)
lives in the engine, never in the data.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .schema import AttributeKind, Schema, SchemaError

__all__ = ["Reference", "ReferenceStore"]

_NO_BATCH: Mapping[str, "Reference"] = MappingProxyType({})


@dataclass(frozen=True)
class Reference:
    """One extracted reference.

    ``values`` maps attribute name to a tuple of values. Tuples keep
    the extractor's order, which keeps everything downstream
    deterministic; semantically they are sets.
    """

    ref_id: str
    class_name: str
    values: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    source: str = ""  # provenance tag, e.g. "email" or "bibtex"

    def get(self, attribute: str) -> tuple[str, ...]:
        return self.values.get(attribute, ())

    def first(self, attribute: str) -> str | None:
        values = self.get(attribute)
        return values[0] if values else None

    def has(self, attribute: str) -> bool:
        return bool(self.values.get(attribute))

    def __post_init__(self) -> None:
        # Freeze the mapping so hashing / sharing is safe.
        frozen = {
            name: tuple(values)
            for name, values in self.values.items()
            if values
        }
        object.__setattr__(self, "values", frozen)


class ReferenceStore:
    """All references of a dataset, indexed by id and by class.

    The store validates every reference against the schema: unknown
    classes, unknown attributes and dangling association targets are
    rejected (dangling targets only at :meth:`validate` time, since
    references may arrive in any order).
    """

    def __init__(self, schema: Schema, references: Iterable[Reference] = ()) -> None:
        self.schema = schema
        self._by_id: dict[str, Reference] = {}
        self._by_class: dict[str, list[Reference]] = {
            name: [] for name in schema.class_names
        }
        # Ids added or replaced since the last successful validate(), in
        # arrival order (a dict used as an ordered set).
        self._unvalidated: dict[str, None] = {}
        for reference in references:
            self.add(reference)

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, ref_id: str) -> bool:
        return ref_id in self._by_id

    def __iter__(self):
        return iter(self._by_id.values())

    def add(self, reference: Reference) -> None:
        self._check_addable(reference)
        self._insert(reference)
        self._unvalidated[reference.ref_id] = None

    def extend(self, references: Iterable[Reference]) -> None:
        """Add a batch all or nothing.

        Every reference is checked as :meth:`add` and :meth:`validate`
        would check it, with links resolved against the store plus the
        batch, before the first one is stored; on any error the store is
        unchanged. The batch leaves nothing for :meth:`validate` to do.
        """
        batch: dict[str, Reference] = {}
        for reference in references:
            self._check_addable(reference, batch)
            batch[reference.ref_id] = reference
        for reference in batch.values():
            self._check_links(reference, batch)
        for reference in batch.values():
            self._insert(reference)

    def _check_addable(
        self, reference: Reference, batch: Mapping[str, Reference] = _NO_BATCH
    ) -> None:
        if reference.class_name not in self.schema:
            raise SchemaError(
                f"reference {reference.ref_id!r} has unknown class "
                f"{reference.class_name!r}"
            )
        if reference.ref_id in self._by_id or reference.ref_id in batch:
            raise ValueError(f"duplicate reference id {reference.ref_id!r}")
        schema_class = self.schema.cls(reference.class_name)
        for attribute_name in reference.values:
            if not schema_class.has_attribute(attribute_name):
                raise SchemaError(
                    f"reference {reference.ref_id!r}: class "
                    f"{reference.class_name!r} has no attribute {attribute_name!r}"
                )

    def _insert(self, reference: Reference) -> None:
        self._by_id[reference.ref_id] = reference
        self._by_class[reference.class_name].append(reference)

    def replace(self, reference: Reference) -> None:
        """Swap in a repaired version of an already-stored reference.

        Used by lenient ingestion to drop dangling association values;
        the id and class must match the stored original.
        """
        existing = self._by_id.get(reference.ref_id)
        if existing is None:
            raise ValueError(f"unknown reference id {reference.ref_id!r}")
        if existing.class_name != reference.class_name:
            raise SchemaError(
                f"cannot replace {reference.ref_id!r}: class changed from "
                f"{existing.class_name!r} to {reference.class_name!r}"
            )
        self._by_id[reference.ref_id] = reference
        bucket = self._by_class[reference.class_name]
        bucket[bucket.index(existing)] = reference
        self._unvalidated[reference.ref_id] = None

    def get(self, ref_id: str) -> Reference:
        return self._by_id[ref_id]

    def of_class(self, class_name: str) -> list[Reference]:
        return list(self._by_class[class_name])

    def class_counts(self) -> dict[str, int]:
        return {name: len(refs) for name, refs in self._by_class.items()}

    def validate(self) -> None:
        """Check that every association value points at a stored reference
        of the right class; raises :class:`SchemaError` otherwise.

        Only references added or replaced since the last successful call
        are checked: the store only grows and :meth:`replace` keeps a
        reference's class, so a reference that passed once stays valid.
        """
        for ref_id in self._unvalidated:
            self._check_links(self._by_id[ref_id])
        self._unvalidated.clear()

    def _check_links(
        self, reference: Reference, batch: Mapping[str, Reference] = _NO_BATCH
    ) -> None:
        """Raise unless each association value of *reference* names a
        reference of the attribute's target class, looked up in the
        store and then in *batch*."""
        schema_class = self.schema.cls(reference.class_name)
        for attribute in schema_class.association_attributes:
            for target_id in reference.get(attribute.name):
                target = self._by_id.get(target_id) or batch.get(target_id)
                if target is None:
                    raise SchemaError(
                        f"{reference.ref_id}.{attribute.name} points at "
                        f"missing reference {target_id!r}"
                    )
                if target.class_name != attribute.target:
                    raise SchemaError(
                        f"{reference.ref_id}.{attribute.name} points at "
                        f"{target_id!r} of class {target.class_name!r}, "
                        f"expected {attribute.target!r}"
                    )

    def atomic_kind(self, class_name: str, attribute: str) -> bool:
        return (
            self.schema.cls(class_name).attribute(attribute).kind
            is AttributeKind.ATOMIC
        )
