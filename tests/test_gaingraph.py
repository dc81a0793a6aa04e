"""Gain graphs: groups, frame/lift matroids and their balance, realizations."""

import random

import pytest

from modext.algebra import Field
from modext.corpus import bowtie, example_13
from modext.errors import (HasLoops, InvalidInput, NoAdditiveEmbedding,
                           NoMultiplicativeEmbedding, NotSimpleFrame)
from modext.gaingraph import (FiniteGroup, GainEdge, GainGraph,
                              additive_embedding,
                              bias_simplicial_vertices, complete_gain_graph,
                              frame_matroid, lift_matroid,
                              link_simplicial_vertices,
                              multiplicative_embedding,
                              realize_frame_arrangement,
                              realize_lift_arrangement)
from modext.matroid import graphic_matroid, mask_of

from oracles import bare_matroid, brute_closure, brute_covers, oracle_for
from samples import arrangement_charpoly, s3_group

TRIV = FiniteGroup.trivial()
SIGN = FiniteGroup.sign()
S3 = s3_group()

# the Klein four-group: smallest non-cyclic group
KLEIN = FiniteGroup(
    ("e", "a", "b", "c"),
    ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))

# a loop with identity and two-sided inverses that is not associative
# (every element is self-inverse, which no group of order 5 allows)
NONASSOC_TABLE = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
                  (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


class TestFiniteGroup:
    def test_standard_groups(self):
        assert TRIV.order == 1
        assert SIGN.order == 2 and SIGN.op(1, 1) == 0 and SIGN.inv(1) == 1
        z6 = FiniteGroup.zmod(6)
        assert z6.order == 6
        for a in range(6):
            for b in range(6):
                assert z6.op(a, b) == (a + b) % 6
            assert z6.op(a, z6.inv(a)) == 0
        assert z6.element_order(1) == 6
        assert z6.element_order(2) == 3
        assert z6.element_order(3) == 2
        assert z6.generator() == 1
        assert KLEIN.generator() is None
        assert all(KLEIN.element_order(a) == 2 for a in range(1, 4))

    def test_index_of(self):
        assert SIGN.index_of("-1") == 1
        with pytest.raises(InvalidInput):
            SIGN.index_of("i")

    def test_rejects_bad_tables(self):
        with pytest.raises(InvalidInput):
            FiniteGroup((), ())
        with pytest.raises(InvalidInput):
            FiniteGroup(("x", "x"), ((0, 1), (1, 0)))
        with pytest.raises(InvalidInput):
            FiniteGroup(("e", "a"), ((0, 1),))
        with pytest.raises(InvalidInput):
            FiniteGroup(("e", "a"), ((0, 1), (1, 7)))
        with pytest.raises(InvalidInput):  # element 0 not the identity
            FiniteGroup(("e", "a"), ((1, 0), (0, 1)))
        with pytest.raises(InvalidInput):  # no two-sided inverse
            FiniteGroup(("e", "a"), ((0, 1), (1, 1)))
        with pytest.raises(InvalidInput):  # latin square, but not associative
            FiniteGroup("eabcd", NONASSOC_TABLE)
        with pytest.raises(InvalidInput):
            FiniteGroup.zmod(0)

    def test_json_round_trip(self):
        # one literal descriptor per group kind reads back as the group it names
        klein = {"kind": "table", "names": ["e", "a", "b", "c"],
                 "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]}
        for data, g in (({"kind": "trivial"}, TRIV), ({"kind": "sign"}, SIGN),
                        ({"kind": "zmod", "p": 5}, FiniteGroup.zmod(5)), (klein, KLEIN)):
            back = FiniteGroup.from_json(data)
            assert back.names == g.names and back.table == g.table
        with pytest.raises(InvalidInput):
            FiniteGroup.from_json({"kind": "dihedral"})
        with pytest.raises(InvalidInput):
            FiniteGroup.from_json({"kind": "table", "names": ["e"]})


class TestGainGraph:
    def test_edge_canonicalization(self):
        z3 = FiniteGroup.zmod(3)
        g = GainGraph(3, z3, [(2, 0, 1), (1, 2, "2")])
        assert g.edges[0] == GainEdge(0, 2, 2)  # flipped, gain inverted
        assert g.edges[1] == GainEdge(1, 2, 2)  # named gain resolved
        assert g.edges[0].gain_from(2, z3) == 1
        assert g.edges[0].other(0) == 2

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidInput):
            GainGraph(2, SIGN, [(0, 0, 0)])  # loops go in the loop list
        with pytest.raises(InvalidInput):
            GainGraph(2, SIGN, [(0, 2, 0)])
        with pytest.raises(InvalidInput):
            GainGraph(2, SIGN, [(0, 1, 5)])
        with pytest.raises(InvalidInput):
            GainGraph(2, SIGN, [], loops=[2])
        with pytest.raises(InvalidInput):
            GainGraph(-1, SIGN, [])

    def test_loops_sorted_and_deduped(self):
        g = GainGraph(3, SIGN, [], loops=[2, 0, 2])
        assert g.loops == (0, 2)
        assert g.atom_label(1) == "loop(2)"

    def test_json_round_trip(self):
        # the loopy bowtie as a literal descriptor, gains by name and by index
        data = {"vertices": 5, "group": {"kind": "sign"},
                "edges": [[0, 1, "+1"], [0, 2, 0], [1, 2, "+1"], [2, 1, "-1"],
                          [0, 3, 0], [0, 4, "+1"], [3, 4, 0], [3, 4, 1]],
                "loops": [4, 3, 2, 1, 0]}
        g, back = bowtie(loops=True), GainGraph.from_json(data)
        assert back.n == g.n and back.edges == g.edges and back.loops == g.loops
        with pytest.raises(InvalidInput):
            GainGraph.from_json({"vertices": 2})


class TestBalance:
    # a cycle is independent in the frame matroid exactly when it is
    # unbalanced, and a connected subset with an unbalanced cycle has rank |V|
    def test_unbalanced_witnesses_are_unbalanced_cycles(self):
        g = bowtie()
        frame = frame_matroid(g)
        assert frame.rank(frame.full_mask) == g.n
        cycles = oracle_for(g)._cycles(range(g.num_atoms))
        witnesses = [cyc for cyc, balanced in cycles if not balanced]
        assert witnesses
        for cyc, balanced in cycles:
            assert frame.rank(mask_of(cyc)) == len(cyc) - balanced

    def test_subset_analysis(self):
        g = bowtie()
        frame = frame_matroid(g)
        digon = mask_of([2, 3])
        assert frame.rank(digon) == 2
        assert frame.rank(mask_of([2])) == 1
        assert oracle_for(g)._cycles([2, 3]) == [(frozenset([2, 3]), False)]


class TestFrameMatroid:
    def test_trivial_gains_give_graphic_matroid(self):
        g = complete_gain_graph(4, TRIV)
        frame = frame_matroid(g)
        graphic = graphic_matroid(4, [e.endpoints() for e in g.edges])
        for mask in range(1 << frame.n):
            assert frame.rank(mask) == graphic.rank(mask)

    def test_component_rank_formula(self):
        # balanced triangle on 0-2 plus an unbalanced digon on 3-4
        g = GainGraph(5, SIGN, [(0, 1, 0), (1, 2, 0), (0, 2, 0),
                                (3, 4, 0), (3, 4, 1)])
        frame = frame_matroid(g)
        assert frame.rank(frame.full_mask) == 4  # (3-1) + (2-1+1)
        assert frame.rank(mask_of([0, 1, 2])) == 2
        assert frame.rank(mask_of([3, 4])) == 2

    def test_loops_and_digons(self):
        g = GainGraph(2, SIGN, [(0, 1, 0), (0, 1, 1)], loops=[0, 1])
        frame = frame_matroid(g)
        assert frame.rank(frame.full_mask) == 2
        assert frame.rank(mask_of([2])) == 1  # a loop alone
        assert frame.rank(mask_of([0, 1])) == 2  # unbalanced digon
        assert frame.rank(mask_of([0, 2])) == 2

    def test_disjoint_unbalanced_digons(self):
        # each digon adds 1 to the frame rank; the lift adds 1 once overall
        g = GainGraph(4, SIGN, [(0, 1, 0), (0, 1, 1), (2, 3, 0), (2, 3, 1)])
        frame = frame_matroid(g)
        assert frame.rank(frame.full_mask) == 4
        lift = lift_matroid(g)
        assert lift.rank(lift.full_mask & ~1) == 3
        assert lift.rank(lift.full_mask) == 3

    def test_repeated_edge_not_simple(self):
        with pytest.raises(NotSimpleFrame):
            frame_matroid(GainGraph(2, SIGN, [(0, 1, 0), (1, 0, 0)]))
        with pytest.raises(NotSimpleFrame):
            frame_matroid(GainGraph(2, SIGN, [(0, 1, 1), (1, 0, 1)]))

    def test_repeated_edge_not_simple_in_lift(self):
        # the two copies would be parallel atoms, not a clash of labels
        with pytest.raises(NotSimpleFrame, match="repeated edge"):
            lift_matroid(GainGraph(3, SIGN, [(0, 1, 0), (1, 2, 1), (1, 0, 0)]))

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(41)
        groups = [TRIV, SIGN, FiniteGroup.zmod(3), S3]
        for trial in range(24):
            group = groups[trial % 4]
            n = rng.randint(2, 4)
            pool = [(u, v, k) for u in range(n) for v in range(u + 1, n)
                    for k in range(group.order)]
            edges = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
            loops = [v for v in range(n) if rng.random() < 0.3]
            g = GainGraph(n, group, edges, loops)
            frame = frame_matroid(g)
            oracle = oracle_for(g)
            for mask in range(1 << g.num_atoms):
                assert frame.rank(mask) == oracle.frame_rank(mask)

    # a balanced subset has rank |V| - c, and a loop or an unbalanced cycle
    # adds one per component: the bowtie's digon {2, 3} is unbalanced
    @pytest.mark.parametrize("g, ranks", [
        (GainGraph(3, TRIV, [(0, 1, 0), (1, 2, 0), (0, 2, 0)]), {mask_of([0, 1, 2]): 2}),
        (GainGraph(3, SIGN, [(0, 1, 1), (1, 2, 1), (0, 2, 0)]), {mask_of([0, 1, 2]): 2}),
        (bowtie(), {mask_of([2, 3]): 2, mask_of([2]): 1}),
        (GainGraph(2, TRIV, [(0, 1, 0)], loops=[1]), {mask_of([0, 1]): 2}),
    ], ids=["trivial-triangle", "sign-triangle", "bowtie", "edge-and-loop"])
    def test_balance_cases_match_oracle(self, g, ranks):
        frame = frame_matroid(g)
        assert {mask: frame.rank(mask) for mask in ranks} == ranks
        _assert_kernel_matches(frame, oracle_for(g).frame_rank)


class TestLiftMatroid:
    def test_lift_of_trivial_gains_is_graphic_plus_coloop(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        g = GainGraph(4, TRIV, [(u, v, 0) for u, v in edges])
        lift = lift_matroid(g)
        graphic = graphic_matroid(4, edges)
        for mask in range(1 << len(edges)):
            assert lift.rank(mask << 1) == graphic.rank(mask)
            assert lift.rank(mask << 1 | 1) == graphic.rank(mask) + 1

    def test_inf_alone_is_a_cover_part_of_a_balanced_span(self):
        # the kernel keys the lifting class (), which is falsy: `covers`
        # drops class 0 and nothing else
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        lift = lift_matroid(GainGraph(4, TRIV, [(u, v, 0) for u, v in edges]))
        for span in (0, 0b10, 0b11010, 0b11110):
            assert list(lift.covers(span, 1)) == [1], span

    def test_rejects_loops(self):
        with pytest.raises(HasLoops):
            lift_matroid(bowtie(loops=True))

    def test_unbalanced_cycle_and_inf_are_dependent(self):
        g = GainGraph(2, SIGN, [(0, 1, 0), (0, 1, 1)])
        lift = lift_matroid(g)
        assert lift.rank(lift.full_mask) == 2
        assert lift.rank(0b110) == 2  # the unbalanced digon
        assert lift.rank(0b111) == 2  # inf lies on its span

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(43)
        groups = [TRIV, SIGN, FiniteGroup.zmod(3), S3]
        for trial in range(16):
            group = groups[trial % 4]
            n = rng.randint(2, 4)
            pool = [(u, v, k) for u in range(n) for v in range(u + 1, n)
                    for k in range(group.order)]
            edges = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
            g = GainGraph(n, group, edges)
            lift = lift_matroid(g)
            oracle = oracle_for(g)
            for mask in range(1 << lift.n):
                assert lift.rank(mask) == oracle.lift_rank(mask)


def _assert_kernel_matches(m, rank):
    """Every rank, closure and cover list of `m` is the one read off `rank`."""
    ref = bare_matroid(m.n, rank)
    for mask in range(1 << m.n):
        assert m.rank(mask) == rank(mask)
        flat = m.closure(mask)
        assert flat == brute_closure(ref, mask)
        assert [flat | c for c in m.covers(mask, m.full_mask & ~flat)] == brute_covers(ref, flat)


class TestComponentFold:
    """Fixed cases of the one-pass fold behind the frame and lift kernels,
    over the non-abelian group S3."""

    def test_merge_of_two_unbalanced_components(self):
        # two unbalanced digons, then an edge joining them: one component,
        # unbalanced once, so both ranks are 4 - 1 + 1
        g = GainGraph(4, S3, [(0, 1, 0), (0, 1, 1), (2, 3, 0), (2, 3, 2), (1, 2, 4)])
        frame, lift = frame_matroid(g), lift_matroid(g)
        assert frame.rank(frame.full_mask) == lift.rank(lift.full_mask) == 4
        oracle = oracle_for(g)
        _assert_kernel_matches(frame, oracle.frame_rank)
        _assert_kernel_matches(lift, oracle.lift_rank)

    def test_loop_on_an_untouched_vertex(self):
        g = GainGraph(4, S3, [(0, 1, 1), (1, 2, 4), (0, 2, 3)], loops=[3])
        frame = frame_matroid(g)
        assert frame.rank(mask_of([3])) == 1
        assert frame.rank(mask_of([0, 3])) == 2
        assert frame.rank(mask_of([0, 1, 3])) == 3
        assert list(frame.covers(0, frame.full_mask))[-1] == mask_of([3])
        _assert_kernel_matches(frame, oracle_for(g).frame_rank)

    def test_merge_absorbing_the_smaller_label(self):
        # {1,2} is folded before {0,3}, so {2,3} moves the component
        # labelled 0 into the one labelled 1, multiplying the potential of
        # 3 on the left; {1,3} then closes a triangle, balanced for one
        # closing gain only, which the order of the S3 factors decides
        balanced = []
        for closing in range(S3.order):
            g = GainGraph(4, S3, [(1, 2, 1), (0, 3, 2), (2, 3, 2), (1, 3, closing)])
            oracle = oracle_for(g)
            frame = frame_matroid(g)
            _assert_kernel_matches(frame, oracle.frame_rank)
            _assert_kernel_matches(lift_matroid(g), oracle.lift_rank)
            if frame.rank(frame.full_mask) == 3:
                balanced.append(closing)
        assert len(balanced) == 1


class TestSimplicialVertices:
    def test_complete_gain_graphs_all_bias_simplicial(self):
        for n in (2, 3):
            for group in (SIGN, FiniteGroup.zmod(3)):
                g = complete_gain_graph(n, group, loops=True)
                assert bias_simplicial_vertices(g) == list(range(n))

    def test_complete_gain_graphs_all_link_simplicial(self):
        for n in (2, 3):
            for group in (SIGN, FiniteGroup.zmod(3)):
                g = complete_gain_graph(n, group)
                assert link_simplicial_vertices(g) == list(range(n))

    def test_bowtie_has_none(self):
        assert bias_simplicial_vertices(bowtie(loops=True)) == []
        assert link_simplicial_vertices(bowtie()) == []

    def test_pendant_vertex_is_vacuously_simplicial(self):
        g = GainGraph(3, TRIV, [(0, 1, 0), (1, 2, 0)])
        assert bias_simplicial_vertices(g) == [0, 2]
        assert link_simplicial_vertices(g) == [0, 2]

    def test_parallel_edges_need_loop_on_the_far_end(self):
        digon = [(0, 1, 0), (0, 1, 1)]
        assert bias_simplicial_vertices(GainGraph(2, SIGN, digon, loops=[0])) == [1]
        assert bias_simplicial_vertices(GainGraph(2, SIGN, digon, loops=[0, 1])) == [0, 1]
        # a loop at v spreads to neighbours or v is not simplicial
        path = GainGraph(2, TRIV, [(0, 1, 0)], loops=[0])
        assert bias_simplicial_vertices(path) == [1]

    def test_link_simplicial_rejects_loops(self):
        with pytest.raises(HasLoops):
            link_simplicial_vertices(bowtie(loops=True))


class TestEmbeddings:
    def test_multiplicative(self):
        q = Field.rational()
        assert multiplicative_embedding(TRIV, q) == (q.one(),)
        assert multiplicative_embedding(SIGN, q) == (q.of(1), q.of(-1))
        with pytest.raises(NoMultiplicativeEmbedding):
            multiplicative_embedding(FiniteGroup.zmod(3), q)
        with pytest.raises(NoMultiplicativeEmbedding):
            multiplicative_embedding(SIGN, Field.gf(2))
        with pytest.raises(NoMultiplicativeEmbedding):
            multiplicative_embedding(FiniteGroup.zmod(3), Field.gf(5))
        with pytest.raises(NoMultiplicativeEmbedding):
            multiplicative_embedding(KLEIN, Field.gf(5))
        for group, field in ((FiniteGroup.zmod(3), Field.gf(7)),
                             (FiniteGroup.zmod(4), Field.gf(5)),
                             (SIGN, Field.gf(3))):
            values = multiplicative_embedding(group, field)
            assert len(set(values)) == group.order
            assert values[0] == field.one()
            for a in range(group.order):
                for b in range(group.order):
                    assert field.mul(values[a], values[b]) == values[group.op(a, b)]

    def test_additive(self):
        q = Field.rational()
        assert additive_embedding(TRIV, q) == (q.zero(),)
        with pytest.raises(NoAdditiveEmbedding):
            additive_embedding(SIGN, q)
        with pytest.raises(NoAdditiveEmbedding):
            additive_embedding(SIGN, Field.gf(3))
        with pytest.raises(NoAdditiveEmbedding):
            additive_embedding(KLEIN, Field.gf(2))
        assert additive_embedding(SIGN, Field.gf(2)) == (0, 1)
        for group, field in ((FiniteGroup.zmod(3), Field.gf(3)),
                             (FiniteGroup.zmod(5), Field.gf(5))):
            values = additive_embedding(group, field)
            assert sorted(values) == list(range(field.p))
            assert values[0] == field.zero()
            for a in range(group.order):
                for b in range(group.order):
                    assert field.of(values[a] + values[b]) == values[group.op(a, b)]


def _normal_forms(arrangement):
    normalized = []
    for row in arrangement.forms:
        lead = next(c for c in row if not arrangement.field.is_zero(c))
        inv = arrangement.field.inv(lead)
        normalized.append(tuple(arrangement.field.mul(inv, c) for c in row))
    return sorted(normalized)


class TestRealizations:
    def test_frame_realization_of_loopy_bowtie(self, corpus):
        arr = realize_frame_arrangement(bowtie(loops=True), Field.rational())
        assert _normal_forms(arr) == _normal_forms(example_13())
        assert arrangement_charpoly(arr) == corpus("example-13")[1].charpoly()

    def test_frame_realization_rank_agreement(self):
        g = GainGraph(3, FiniteGroup.zmod(3),
                      [(u, v, k) for u in range(3) for v in range(u + 1, 3)
                       for k in range(3)], loops=[0])
        frame = frame_matroid(g)
        arr = realize_frame_arrangement(g, Field.gf(7))
        dep = arr.dependence_matroid()
        for mask in range(1 << frame.n):
            assert frame.rank(mask) == dep.rank(mask)

    def test_frame_realization_needs_roots_of_unity(self):
        with pytest.raises(NoMultiplicativeEmbedding):
            realize_frame_arrangement(bowtie(), Field.gf(2))

    def test_lift_realization_of_bowtie_forces_char_2(self, corpus):
        g = bowtie()
        with pytest.raises(NoAdditiveEmbedding):
            realize_lift_arrangement(g, Field.rational())
        with pytest.raises(NoAdditiveEmbedding):
            realize_lift_arrangement(g, Field.gf(3))
        arr = realize_lift_arrangement(g, Field.gf(2))
        assert arr.dim == 6 and len(arr.forms) == 9
        lift = lift_matroid(g)
        dep = arr.dependence_matroid()
        for mask in range(1 << lift.n):
            assert lift.rank(mask) == dep.rank(mask)
        # a 6-dim realization of a rank-5 matroid is not essential
        assert dep.rank(dep.full_mask) != arr.dim
        assert (arrangement_charpoly(arr.essentialize())
                == corpus("bowtie-lift-9")[1].charpoly())

    def test_lift_realization_rejects_loops(self):
        with pytest.raises(HasLoops):
            realize_lift_arrangement(bowtie(loops=True), Field.gf(2))
