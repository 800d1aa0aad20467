"""Union-find tests, including a networkx connected-components oracle,
and the cluster index checked against regrouping from scratch."""

import copy

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import ClusterIndex, ConstraintViolation, UnionFind
from repro.core.references import Reference


class TestBasics:
    def test_lazy_registration(self):
        uf = UnionFind()
        assert uf.find("a") == "a"
        assert "a" in uf and len(uf) == 1

    def test_union_and_connected(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.connected("a", "c")
        assert not uf.connected("a", "d")
        assert uf.group_count() == 2  # {a,b,c} and {d}

    def test_union_idempotent(self):
        uf = UnionFind()
        uf.union("a", "b")
        count = uf.union_count
        uf.union("a", "b")
        assert uf.union_count == count

    def test_groups_deterministic(self):
        uf = UnionFind(["c", "a", "b"])
        uf.union("a", "c")
        assert uf.groups() == [["a", "c"], ["b"]]
        assert uf.members("c") == ["a", "c"]


class TestEnemies:
    def test_enemy_blocks_union(self):
        uf = UnionFind()
        uf.add_enemy("a", "b")
        assert uf.union("a", "b") is None
        assert not uf.connected("a", "b")
        assert uf.are_enemies("a", "b")

    def test_enemy_inherited_through_union(self):
        uf = UnionFind()
        uf.add_enemy("a", "b")
        uf.union("a", "c")
        # c's cluster now contains a, so c and b are enemies.
        assert uf.are_enemies("c", "b")
        assert uf.union("c", "b") is None

    def test_enemy_inherited_from_absorbed_side(self):
        uf = UnionFind()
        uf.add_enemy("a", "b")
        uf.union("b", "c")
        uf.union("c", "d")
        assert uf.union("d", "a") is None

    def test_cannot_make_connected_pair_enemies(self):
        uf = UnionFind()
        uf.union("a", "b")
        with pytest.raises(ConstraintViolation):
            uf.add_enemy("a", "b")

    def test_enemies_of(self):
        uf = UnionFind()
        uf.add_enemy("a", "b")
        uf.add_enemy("a", "c")
        assert uf.enemies_of("a") == {uf.find("b"), uf.find("c")}


@st.composite
def union_sequences(draw):
    n = draw(st.integers(2, 12))
    items = [f"n{i}" for i in range(n)]
    n_ops = draw(st.integers(0, 25))
    ops = [
        (
            draw(st.sampled_from(items)),
            draw(st.sampled_from(items)),
        )
        for _ in range(n_ops)
    ]
    return items, ops


class TestAgainstNetworkxOracle:
    @given(union_sequences())
    @settings(max_examples=60)
    def test_matches_connected_components(self, data):
        items, ops = data
        uf = UnionFind(items)
        graph = nx.Graph()
        graph.add_nodes_from(items)
        for left, right in ops:
            uf.union(left, right)
            graph.add_edge(left, right)
        components = list(nx.connected_components(graph))
        assert uf.group_count() == len(components)
        for component in components:
            members = sorted(component)
            for other in members[1:]:
                assert uf.connected(members[0], other)

    @given(union_sequences())
    @settings(max_examples=40)
    def test_enemy_pairs_never_connect(self, data):
        items, ops = data
        if len(items) < 2:
            return
        uf = UnionFind(items)
        uf.add_enemy(items[0], items[1])
        for left, right in ops:
            uf.union(left, right)
        assert not uf.connected(items[0], items[1])


def regrouped(class_names, uf, references):
    """Per-class clusters by grouping every reference under its root."""
    clusters = {name: {} for name in class_names}
    for reference in references:
        clusters[reference.class_name].setdefault(uf.find(reference.ref_id), []).append(
            reference.ref_id
        )
    return {
        name: sorted((sorted(group) for group in groups.values()), key=lambda g: g[0])
        for name, groups in clusters.items()
    }


@st.composite
def index_scripts(draw):
    """References of two classes (some indexed up front, the rest added
    later) and a script of unions and additions. Unions may also join
    ids not yet indexed, so an added reference can arrive in a cluster
    that already has members."""
    n = draw(st.integers(2, 14))
    references = [
        Reference(f"r{i:02d}", draw(st.sampled_from(["A", "B"])), {}) for i in range(n)
    ]
    initial = draw(st.integers(1, n))
    ids = st.sampled_from([reference.ref_id for reference in references])
    script = []
    for reference in references[initial:]:
        script.append(("add", reference))
        for _ in range(draw(st.integers(0, 3))):
            script.append(("union", draw(ids), draw(ids)))
    return references, initial, script


class TestClusterIndex:
    CLASSES = ("A", "B", "C")

    @given(index_scripts(), st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13))))
    @settings(max_examples=80)
    def test_matches_regrouping_and_never_changes_a_handed_out_result(
        self, script_data, early_unions
    ):
        references, initial, script = script_data
        present = references[:initial]
        uf = UnionFind()
        for left, right in early_unions:
            if left < len(references) and right < len(references):
                uf.union(references[left].ref_id, references[right].ref_id)
        index = ClusterIndex(self.CLASSES, uf, present)
        uf.add_union_listener(index.union)
        assert index.partitions() == regrouped(self.CLASSES, uf, present)
        handed_out = []
        for step in script:
            if step[0] == "add":
                present.append(step[1])
                index.add(step[1], uf.find(step[1].ref_id))
            else:
                uf.union(step[1], step[2])
            result = index.partitions()
            assert index.size == len(present)
            assert result == regrouped(self.CLASSES, uf, present)
            handed_out.append((result, copy.deepcopy(result)))
        for result, snapshot in handed_out:
            assert result == snapshot

    def test_a_cross_class_root_keeps_one_cluster_per_class(self):
        references = [
            Reference("a1", "A", {}),
            Reference("b1", "B", {}),
            Reference("a2", "A", {}),
            Reference("b2", "B", {}),
        ]
        uf = UnionFind()
        index = ClusterIndex(self.CLASSES, uf, references)
        uf.add_union_listener(index.union)
        uf.union("a1", "b1")
        uf.union("a2", "b2")
        uf.union("b2", "a1")
        assert index.partitions() == {
            "A": [["a1", "a2"]],
            "B": [["b1", "b2"]],
            "C": [],
        }
