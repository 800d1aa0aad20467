"""Shared fixtures: the paper's Example 1 and small generated datasets."""

import pytest

from repro.core import Reference, ReferenceStore
from repro.datasets import generate_cora_dataset, generate_pim_dataset
from repro.datasets.cora import CoraConfig
from repro.domains import PimDomainModel


def example1_references() -> list[Reference]:
    """The references of Figure 1(b), verbatim."""
    return [
        Reference(
            "a1",
            "Article",
            {
                "title": (
                    "Distributed query processing in a relational data base system",
                ),
                "pages": ("169-180",),
                "authoredBy": ("p1", "p2", "p3"),
                "publishedIn": ("c1",),
            },
        ),
        Reference(
            "a2",
            "Article",
            {
                "title": (
                    "Distributed query processing in a relational data base system",
                ),
                "pages": ("169-180",),
                "authoredBy": ("p4", "p5", "p6"),
                "publishedIn": ("c2",),
            },
        ),
        Reference("p1", "Person", {"name": ("Robert S. Epstein",), "coAuthor": ("p2", "p3")}),
        Reference("p2", "Person", {"name": ("Michael Stonebraker",), "coAuthor": ("p1", "p3")}),
        Reference("p3", "Person", {"name": ("Eugene Wong",), "coAuthor": ("p1", "p2")}),
        Reference("p4", "Person", {"name": ("Epstein, R.S.",), "coAuthor": ("p5", "p6")}),
        Reference("p5", "Person", {"name": ("Stonebraker, M.",), "coAuthor": ("p4", "p6")}),
        Reference("p6", "Person", {"name": ("Wong, E.",), "coAuthor": ("p4", "p5")}),
        Reference(
            "p7",
            "Person",
            {
                "name": ("Eugene Wong",),
                "email": ("eugene@berkeley.edu",),
                "emailContact": ("p8",),
            },
        ),
        Reference(
            "p8",
            "Person",
            {"email": ("stonebraker@csail.mit.edu",), "emailContact": ("p7",)},
        ),
        Reference(
            "p9",
            "Person",
            {"name": ("mike",), "email": ("stonebraker@csail.mit.edu",)},
        ),
        Reference(
            "c1",
            "Venue",
            {
                "name": ("ACM Conference on Management of Data",),
                "year": ("1978",),
                "location": ("Austin, Texas",),
            },
        ),
        Reference("c2", "Venue", {"name": ("ACM SIGMOD",), "year": ("1978",)}),
    ]


#: A reference that makes a batch ending in it unacceptable to Example
#: 1's store, when it follows a valid new reference "x1".
BAD_BATCH_TAILS = {
    "dangling link": Reference("bad", "Person", {"coAuthor": ("ghost",)}),
    "wrong-class link": Reference("bad", "Person", {"coAuthor": ("c1",)}),
    "unknown attribute": Reference("bad", "Person", {"shoeSize": ("42",)}),
    "unknown class": Reference("bad", "Robot", {}),
    "duplicate of a stored id": Reference("p1", "Person", {"name": ("X",)}),
    "duplicate within the batch": Reference("x1", "Person", {"name": ("X",)}),
}


@pytest.fixture
def example1_store() -> ReferenceStore:
    return ReferenceStore(PimDomainModel().schema, example1_references())


@pytest.fixture(scope="session")
def tiny_pim_a():
    """A small PIM A instance shared across integration tests."""
    return generate_pim_dataset("A", scale=0.35)


@pytest.fixture(scope="session")
def tiny_pim_d():
    return generate_pim_dataset("D", scale=0.35)


@pytest.fixture(scope="session")
def tiny_cora():
    return generate_cora_dataset(
        CoraConfig(n_papers=40, n_citations=380, n_authors=80, n_venues=14)
    )
