"""Tests for node identity and the DAG oracle over provenance records."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.provenance.graph import NodeRef
from repro.query.ancestry import ProvenanceIndex

from dag_oracle import assert_dag, derivation_depth, topological_order


def _index_with(*edges, attribute="input"):
    """An index holding ``src -> dst`` xref records."""
    index = ProvenanceIndex()
    for src, dst in edges:
        index.add(src, attribute, str(dst))
    return index


A = NodeRef("a", 0)
B = NodeRef("b", 0)
C = NodeRef("c", 0)


class TestNodeRef:
    def test_str_matches_paper_item_naming(self):
        assert str(NodeRef("uuid1", 2)) == "uuid1_2"

    def test_parse_roundtrip(self):
        ref = NodeRef("f-000123", 7)
        assert NodeRef.parse(str(ref)) == ref

    def test_parse_uuid_with_underscores(self):
        assert NodeRef.parse("a_b_3") == NodeRef("a_b", 3)

    def test_parse_malformed(self):
        for bad in ("nounderscore", "_5", "x_notanint"):
            with pytest.raises(ValueError):
                NodeRef.parse(bad)

    @given(
        st.from_regex(r"[a-z][a-z0-9\-]{0,12}", fullmatch=True),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_parse_inverts_str(self, uuid, version):
        ref = NodeRef(uuid, version)
        assert NodeRef.parse(str(ref)) == ref


class TestDagOracle:
    def test_self_cycle_reported(self):
        with pytest.raises(AssertionError, match=r"cycle: a_0 -> a_0$"):
            assert_dag(_index_with((A, A)))

    def test_two_cycle_reported(self):
        with pytest.raises(AssertionError, match=r"cycle: a_0 -> b_0 -> a_0$"):
            assert_dag(_index_with((A, B), (B, A)))

    def test_three_cycle_reported(self):
        with pytest.raises(
            AssertionError, match=r"cycle: a_0 -> b_0 -> c_0 -> a_0$"
        ):
            assert_dag(_index_with((A, B), (B, C), (C, A)))

    def test_cycle_through_any_xref_attribute(self):
        index = _index_with((A, B), attribute="forkparent")
        index.add(B, "version-of", str(A))
        with pytest.raises(AssertionError, match="cycle"):
            assert_dag(index)

    def test_diamond_passes(self):
        d = NodeRef("d", 0)
        index = _index_with((A, B), (A, C), (B, d), (C, d))
        assert_dag(index)
        assert index.ancestors(A) == {B, C, d}
        assert derivation_depth(index) == 2

    def test_dependencies_come_first(self):
        index = _index_with((A, B), (B, C))
        assert topological_order(index) == [C, B, A]

    def test_depth_of_a_chain(self):
        refs = [NodeRef(f"n{i}", 0) for i in range(5)]
        index = _index_with(*zip(refs, refs[1:]))
        assert derivation_depth(index) == 4
        assert index.ancestors(refs[0]) == set(refs[1:])
        assert index.descendants(refs[-1]) == set(refs[:-1])

    def test_depth_skips_version_edges(self):
        older, newer = NodeRef("f", 0), NodeRef("f", 1)
        index = _index_with((newer, A), (older, B))
        index.add(newer, "version-of", str(older))
        # Through the version-of edge the longest path would be 2.
        assert derivation_depth(index) == 1

    def test_depth_of_empty_index(self):
        assert derivation_depth(ProvenanceIndex()) == 0


class TestOracleProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=60,
        )
    )
    def test_sorts_a_dag_and_names_a_real_cycle(self, edges):
        """On any edge set the oracle either orders every node after
        its dependencies, or names a cycle made of real edges."""
        refs = [NodeRef(f"n{i}", 0) for i in range(16)]
        pairs = {(refs[src], refs[dst]) for src, dst in edges}
        index = _index_with(*sorted(pairs))
        try:
            order = topological_order(index)
        except AssertionError as error:
            names = str(error).split("cycle: ", 1)[1].split(" -> ")
            cycle = [NodeRef.parse(name) for name in names]
            assert cycle[0] == cycle[-1]
            assert all(step in pairs for step in zip(cycle, cycle[1:]))
            return
        position = {ref: i for i, ref in enumerate(order)}
        assert all(position[dst] < position[src] for src, dst in pairs)
        for ref in order:
            assert ref not in index.ancestors(ref)
