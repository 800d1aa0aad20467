"""Tests for the schema model and reference store."""

import pytest

from repro.core import (
    Attribute,
    AttributeKind,
    Reference,
    ReferenceStore,
    Schema,
    SchemaClass,
    SchemaError,
)
from repro.domains import PIM_SCHEMA

from .conftest import BAD_BATCH_TAILS


class TestSchema:
    def test_attribute_kinds(self):
        atomic = Attribute.atomic("name")
        assoc = Attribute.association("coAuthor", target="Person")
        assert atomic.is_atomic and not atomic.is_association
        assert assoc.is_association and assoc.target == "Person"

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            SchemaClass("X", [Attribute.atomic("a"), Attribute.atomic("a")])

    def test_duplicate_class_rejected(self):
        cls = SchemaClass("X", [Attribute.atomic("a")])
        with pytest.raises(SchemaError):
            Schema([cls, cls])

    def test_dangling_association_target_rejected(self):
        with pytest.raises(SchemaError):
            Schema(
                [SchemaClass("X", [Attribute.association("to", target="Missing")])]
            )

    def test_lookup(self):
        person = PIM_SCHEMA.cls("Person")
        assert person.attribute("email").kind is AttributeKind.ATOMIC
        assert person.attribute("coAuthor").kind is AttributeKind.ASSOCIATION
        assert "Person" in PIM_SCHEMA
        assert "Robot" not in PIM_SCHEMA
        with pytest.raises(SchemaError):
            PIM_SCHEMA.cls("Robot")
        with pytest.raises(SchemaError):
            person.attribute("shoeSize")

    def test_pim_schema_matches_figure_1a(self):
        person = PIM_SCHEMA.cls("Person")
        assert {a.name for a in person.atomic_attributes} == {"name", "email"}
        assert {a.name for a in person.association_attributes} == {
            "coAuthor",
            "emailContact",
        }
        article = PIM_SCHEMA.cls("Article")
        assert {a.name for a in article.association_attributes} == {
            "authoredBy",
            "publishedIn",
        }


class TestReference:
    def test_values_frozen_and_cleaned(self):
        reference = Reference("r1", "Person", {"name": ("A",), "email": ()})
        assert reference.get("name") == ("A",)
        assert "email" not in reference.values  # empty dropped
        assert reference.first("name") == "A"
        assert reference.first("email") is None
        assert reference.has("name") and not reference.has("email")


class TestReferenceStore:
    def test_round_trip(self):
        store = ReferenceStore(
            PIM_SCHEMA, [Reference("r1", "Person", {"name": ("A",)})]
        )
        assert len(store) == 1
        assert "r1" in store
        assert store.get("r1").first("name") == "A"
        assert store.class_counts()["Person"] == 1

    def test_unknown_class_rejected(self):
        store = ReferenceStore(PIM_SCHEMA)
        with pytest.raises(SchemaError):
            store.add(Reference("r1", "Robot", {}))

    def test_unknown_attribute_rejected(self):
        store = ReferenceStore(PIM_SCHEMA)
        with pytest.raises(SchemaError):
            store.add(Reference("r1", "Person", {"shoeSize": ("42",)}))

    def test_duplicate_id_rejected(self):
        store = ReferenceStore(PIM_SCHEMA, [Reference("r1", "Person", {})])
        with pytest.raises(ValueError):
            store.add(Reference("r1", "Person", {}))

    def test_validate_dangling_association(self):
        store = ReferenceStore(
            PIM_SCHEMA,
            [Reference("r1", "Person", {"coAuthor": ("ghost",)})],
        )
        with pytest.raises(SchemaError):
            store.validate()

    def test_validate_wrong_target_class(self):
        store = ReferenceStore(
            PIM_SCHEMA,
            [
                Reference("v1", "Venue", {"name": ("SIGMOD",)}),
                Reference("r1", "Person", {"coAuthor": ("v1",)}),
            ],
        )
        with pytest.raises(SchemaError):
            store.validate()

    def test_validate_accepts_consistent_store(self, example1_store):
        example1_store.validate()
        assert len(example1_store.of_class("Person")) == 9
        assert len(example1_store.of_class("Article")) == 2
        assert len(example1_store.of_class("Venue")) == 2


# Links that validate() must reject, as (extra stored refs, bad ref).
BAD_LINKS = {
    "dangling": ([], Reference("r2", "Person", {"coAuthor": ("ghost",)})),
    "wrong target class": (
        [Reference("v1", "Venue", {"name": ("SIGMOD",)})],
        Reference("r2", "Person", {"coAuthor": ("v1",)}),
    ),
}


def checked_ids(monkeypatch):
    """Ids whose links validate()/extend() check from now on."""
    seen = []
    check = ReferenceStore._check_links

    def spy(self, reference, *args):
        seen.append(reference.ref_id)
        return check(self, reference, *args)

    monkeypatch.setattr(ReferenceStore, "_check_links", spy)
    return seen


class TestIncrementalValidate:
    @pytest.mark.parametrize("case", sorted(BAD_LINKS))
    def test_bad_link_added_after_validate_rejected(self, case):
        extra, bad = BAD_LINKS[case]
        store = ReferenceStore(PIM_SCHEMA, [Reference("r1", "Person", {}), *extra])
        store.validate()
        store.add(bad)
        with pytest.raises(SchemaError):
            store.validate()
        with pytest.raises(SchemaError):  # a failed check is not forgotten
            store.validate()

    @pytest.mark.parametrize("case", sorted(BAD_LINKS))
    def test_bad_link_replaced_in_after_validate_rejected(self, case):
        extra, bad = BAD_LINKS[case]
        store = ReferenceStore(PIM_SCHEMA, [Reference("r2", "Person", {}), *extra])
        store.validate()
        store.replace(bad)
        with pytest.raises(SchemaError):
            store.validate()

    def test_superseded_reference_not_rechecked(self, monkeypatch):
        _, bad = BAD_LINKS["dangling"]
        store = ReferenceStore(PIM_SCHEMA, [bad])
        store.replace(Reference("r2", "Person", {"name": ("A",)}))
        seen = checked_ids(monkeypatch)
        store.validate()
        assert seen == ["r2"]

    def test_only_new_references_checked(self, monkeypatch, example1_store):
        example1_store.validate()
        seen = checked_ids(monkeypatch)
        example1_store.add(Reference("x1", "Person", {"coAuthor": ("p1",)}))
        example1_store.replace(Reference("p2", "Person", {"name": ("M. S.",)}))
        example1_store.validate()
        assert seen == ["x1", "p2"]
        example1_store.validate()
        assert seen == ["x1", "p2"]


class TestExtend:
    @pytest.mark.parametrize("kind", sorted(BAD_BATCH_TAILS))
    def test_bad_batch_stores_nothing(self, example1_store, kind):
        size = len(example1_store)
        with pytest.raises((SchemaError, ValueError)):
            example1_store.extend(
                [Reference("x1", "Person", {}), BAD_BATCH_TAILS[kind]]
            )
        assert len(example1_store) == size
        assert "x1" not in example1_store
        assert example1_store.class_counts()["Person"] == 9

    def test_links_resolve_within_batch(self, monkeypatch, example1_store):
        example1_store.validate()
        example1_store.extend(
            [
                Reference("x1", "Person", {"coAuthor": ("x2", "p1")}),
                Reference("x2", "Person", {"emailContact": ("x1",)}),
            ]
        )
        assert example1_store.get("x1").get("coAuthor") == ("x2", "p1")
        seen = checked_ids(monkeypatch)
        example1_store.validate()  # the batch was checked on the way in
        assert seen == []
