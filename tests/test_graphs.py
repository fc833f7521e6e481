from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoverlap.core import ModeLayout, ginibre_states, random_state, to_correlation
from qoverlap.graphs import (
    MeasurementGraph,
    _connected_spanning,
    _exchange_minimum,
    _normalize_edges,
    _ring_plan,
    _ring_sums,
    connected_components,
    count_matchings,
    dedup_report,
    enumerate_classes,
    enumerate_matchings,
    exact_numerators,
    exact_probabilities,
    is_connected_spanning,
    matching_partners,
    probability_batch,
    probability_exact,
    probability_matrix,
)
from qoverlap.derive import build_basis
from qoverlap.interferometer import find_embedding, graph_probability

from einsum_reference import einsum_probability


def _rand_R(rng):
    return to_correlation(random_state(4, seed=rng))


def reference_canonical(graph):
    """Canonical form by the permutation scan: every copy exchange re-sorts its edges."""
    touched = sorted({m // 2 for e in graph.edges for m in e})
    ids = [graph.layout.copies[c] for c in touched]
    order = sorted(range(len(touched)), key=lambda k: (ids[k], touched[k]))
    g = graph.relabel(
        {touched[old]: new for new, old in enumerate(order)},
        ModeLayout(tuple(ids[old] for old in order)),
    )
    n1, n2 = g.counts()
    best = None
    for p1 in permutations(range(n1)):
        for p2 in permutations(range(n2)):
            perm = {i: p1[i] for i in range(n1)}
            perm.update({n1 + i: n1 + p2[i] for i in range(n2)})
            edges = _normalize_edges(
                tuple(2 * perm[m // 2] + (m % 2) for m in e) for e in g.edges
            )
            if best is None or edges < best:
                best = edges
    return MeasurementGraph(g.layout, best)


def fingerprints(classes):
    """Each class's probabilities on 56 fixed random Ginibre pairs, rounded at 1e-10."""
    R1s, R2s = to_correlation(ginibre_states(np.random.default_rng(20240817), (56, 2))).swapaxes(0, 1)
    return [tuple(np.round(probability_batch(g, R1s, R2s), 10)) for g in classes]


def brute_force_classes(max_copies, canonical=MeasurementGraph.canonical):
    """``enumerate_classes`` by scan: every matching, ``is_connected_spanning``, then ``canonical``."""
    classes = {}
    for n1 in range(max_copies + 1):
        for n2 in range(max_copies + 1 - n1):
            if n1 + n2 < 1:
                continue
            layout = ModeLayout.standard(n1, n2)
            for edges in enumerate_matchings(list(range(layout.n_modes))):
                if edges and is_connected_spanning(layout, edges):
                    g = canonical(MeasurementGraph(layout, edges))
                    classes.setdefault(g.key(), g)
    return sorted(classes.values(), key=lambda g: (g.n_copies, g.counts(), g.n_edges, g.edges))


def reference_class_keys(max_copies):
    """Keys of ``enumerate_classes`` rebuilt by brute force on the reference canonical form.

    No two of the classes share a fingerprint, so none is the same
    measurement as another.
    """
    ordered = brute_force_classes(max_copies, reference_canonical)
    assert len(set(fingerprints(ordered))) == len(ordered)
    return [g.key() for g in ordered]


def connected_forms():
    """Every connected spanning matching on every standard layout of one to four copies."""
    return [
        MeasurementGraph(layout, edges)
        for n in range(1, 5)
        for layout in (ModeLayout.standard(n1, n - n1) for n1 in range(n + 1))
        for edges in enumerate_matchings(list(range(2 * n)))
        if edges and is_connected_spanning(layout, edges)
    ]


@st.composite
def graphs(draw):
    """A non-empty matching on a layout of one to four copies in any state order."""
    copies = tuple(draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4)))
    modes = draw(st.permutations(range(2 * len(copies))))
    n_edges = draw(st.integers(1, len(copies)))
    edges = [(modes[2 * k], modes[2 * k + 1]) for k in range(n_edges)]
    return MeasurementGraph(ModeLayout(copies), edges)


@st.composite
def exchanged(draw):
    """A graph and the same graph after a random same-state copy exchange."""
    g = draw(graphs())
    perm = {}
    for sid in (1, 2):
        mine = [c for c, s in enumerate(g.layout.copies) if s == sid]
        perm.update(zip(mine, draw(st.permutations(mine))))
    return g, g.relabel(perm, g.layout)


class TestEnumeration:
    def test_eight_mode_matching_count(self):
        """Brute enumeration agrees with sum_k C(8,2k)(2k-1)!!."""
        assert len(enumerate_matchings(list(range(8)))) == 764
        assert count_matchings(8) == 764

    def test_small_mode_counts(self):
        # 1 + C(4,2) + 3 = 10 matchings on four modes
        assert len(enumerate_matchings(list(range(4)))) == 10
        assert count_matchings(4) == 10

    def test_matchings_are_disjoint(self):
        for m in enumerate_matchings(list(range(6))):
            flat = [x for e in m for x in e]
            assert len(flat) == len(set(flat))

    def test_class_count_four_copies(self):
        assert len(enumerate_classes(4)) == 237

    def test_classes_have_edges(self):
        assert all(g.n_edges >= 1 for g in enumerate_classes(2))

    def test_classes_match_brute_force_reference(self):
        got = enumerate_classes(4)
        assert isinstance(got, tuple) and enumerate_classes(4) is got
        assert [g.key() for g in got] == reference_class_keys(4)

    @pytest.mark.parametrize("max_copies", [1, 2, 3, 4])
    def test_orbit_members_match_the_matching_scan(self, max_copies):
        want = brute_force_classes(max_copies)
        got = enumerate_classes(max_copies)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w, (str(g), str(w))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_connectivity_mask_matches_the_component_search(self, n):
        matchings = enumerate_matchings(list(range(2 * n)))
        mask = _connected_spanning(matching_partners(matchings, 2 * n))
        layout = ModeLayout((1,) * n)
        assert mask.tolist() == [bool(m) and is_connected_spanning(layout, m) for m in matchings]


class TestCanonical:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_matches_permutation_scan(self, g):
        assert g.canonical().key() == reference_canonical(g).key()

    @settings(max_examples=300, deadline=None)
    @given(exchanged())
    def test_invariant_under_copy_exchange(self, pair):
        g, h = pair
        assert g.canonical().key() == h.canonical().key()

    def test_memo_matches_the_exchange_minimum(self):
        """The memoized form is the unmemoized minimum, also after relabelling into larger layouts."""
        exchange_minimum = _exchange_minimum.__wrapped__
        forms = connected_forms()
        assert len(forms) == 1348
        rng = np.random.default_rng(23)
        for g in forms:
            want = MeasurementGraph(g.layout, exchange_minimum(g.counts(), g.edges))
            assert g.canonical() == want, str(g)
            # Copy c moves to position spots[c] of a layout with up to four copies.
            total = int(rng.integers(g.n_copies, 5))
            spots = rng.permutation(total)[: g.n_copies]
            copies = list(rng.integers(1, 3, total))
            for c, spot in enumerate(spots):
                copies[spot] = g.layout.copies[c]
            h = g.relabel(dict(enumerate(spots.tolist())), ModeLayout(tuple(copies)))
            assert h.canonical() == want, (str(g), h)
            assert h.canonical().key() == reference_canonical(h).key(), (str(g), h)


class TestGraphValidation:
    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            MeasurementGraph(ModeLayout((1, 2)), [(0, 0)])

    def test_rejects_shared_mode(self):
        with pytest.raises(ValueError, match="two edges"):
            MeasurementGraph(ModeLayout((1, 2)), [(0, 2), (0, 3)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            MeasurementGraph(ModeLayout((1, 2)), [(0, 7)])

    def test_edges_normalized(self):
        g = MeasurementGraph(ModeLayout((1, 2)), [(3, 0), (2, 1)])
        assert g.edges == ((0, 3), (1, 2))


class TestProbabilities:
    def test_three_routes_agree(self):
        """Correlation contraction, dense projection, exact rationals."""
        rng = np.random.default_rng(0)
        rho1, rho2 = random_state(4, seed=rng), random_state(4, seed=rng)
        R1, R2 = to_correlation(rho1), to_correlation(rho2)
        for g in enumerate_classes(2)[:12]:
            p_bloch = graph_probability(g, rho1, rho2, method="bloch")
            p_dense = graph_probability(g, rho1, rho2, method="dense")
            assert p_bloch == pytest.approx(p_dense, abs=1e-11)

    def test_exact_matches_float_on_rational_states(self):
        # correlation matrices with small rational entries
        from fractions import Fraction

        R1 = np.zeros((4, 4)); R1[0, 0] = 1.0; R1[1, 1] = 0.5; R1[3, 3] = -0.25
        R2 = np.zeros((4, 4)); R2[0, 0] = 1.0; R2[2, 2] = 0.5; R2[3, 0] = 0.25
        F1 = [[Fraction(0)] * 4 for _ in range(4)]
        F2 = [[Fraction(0)] * 4 for _ in range(4)]
        F1[0][0] = Fraction(1); F1[1][1] = Fraction(1, 2); F1[3][3] = Fraction(-1, 4)
        F2[0][0] = Fraction(1); F2[2][2] = Fraction(1, 2); F2[3][0] = Fraction(1, 4)
        for g in enumerate_classes(2)[:10]:
            exact = probability_exact(g, F1, F2)
            approx = probability_batch(g, R1[None], R2[None])[0]
            assert float(exact) == pytest.approx(approx, abs=1e-13)

    def test_exact_patterns_of_every_plan_member(self, plan):
        """The one evaluator's integer rows on int64 numerators of hand-built rational pairs.

        Every member's row sums to ``4**edges`` times its touched copies'
        denominators, its all-antibunched entry is the numerator of its
        exact probability, and it is 0 beyond its ``2**edges`` entries.
        """
        third, quarter = Fraction(1, 3), Fraction(1, 4)
        werner = np.diag([Fraction(1), -third, -third, -third])
        a, b = [Fraction(1, 2), Fraction(0), -third], [Fraction(1, 5), Fraction(2, 3), Fraction(0)]
        product_state = np.array([[Fraction(1)] + b] + [[x] + [x * y for y in b] for x in a])
        diagonal = np.diag([Fraction(1), Fraction(1, 2), Fraction(0), -quarter])
        diagonal[3, 0] = quarter
        pairs = [tuple(map(exact_numerators, pair)) for pair in
                 ((werner, product_state), (product_state, diagonal), (diagonal, werner))]
        members = tuple(m for conf in plan.configurations for m in conf.members)
        N = np.array([[R.N for R in pair] for pair in pairs], dtype=np.int64)
        rows = _ring_sums(_ring_plan(members, True), N[:, 0], N[:, 1])
        assert rows.dtype == np.int64
        for member, row, exact in zip(members, rows, exact_probabilities(members, pairs)):
            states = [member.layout.copies[c] for c in member.touched_copies()]
            width = 2**member.n_edges
            for s, ((R1, R2), p) in enumerate(zip(pairs, exact)):
                den = 4**member.n_edges * R1.den ** states.count(1) * R2.den ** states.count(2)
                assert int(row[:, s].sum()) == den, str(member)
                assert int(row[width - 1, s]) == p * den, str(member)
                assert not row[width:, s].any(), str(member)

    def test_probability_in_unit_interval(self):
        rng = np.random.default_rng(1)
        rhos = [(random_state(4, seed=rng), random_state(4, seed=rng)) for _ in range(5)]
        for g in enumerate_classes(3)[:40]:
            for rho1, rho2 in rhos:
                p = graph_probability(g, rho1, rho2)
                assert -1e-12 <= p <= 1.0 + 1e-12

    @pytest.mark.parametrize("batch", [56, 500, 600, 1400])
    def test_ring_halves_match_the_einsum_reference(self, batch):
        """Both design contexts' class matrices equal each class's own greedy einsum to 1e-15, with the same zeros.

        The shared ring halves sum in another order than the einsum, so
        the last bits may differ; a class's one-graph call gives its row
        of the matrix bit for bit.
        """
        rng = np.random.default_rng(batch)
        R1s = np.stack([_rand_R(rng) for _ in range(batch)])
        R2s = np.stack([_rand_R(rng) for _ in range(batch)])
        for copies in (2, 4):
            basis = build_basis(copies)
            for g, got in zip(basis.graphs, basis.graph_matrix(R1s, R2s)):
                want = einsum_probability(g, R1s, R2s)
                assert np.abs(got - want).max() <= 1e-15, str(g)
                assert np.array_equal(got == 0.0, want == 0.0), str(g)
                assert np.array_equal(probability_batch(g, R1s, R2s), got), str(g)

    def test_class_matrix_matches_dense_projection(self):
        """One class of every shape against the dense route, on Ginibre, pure and basis pairs.

        A shape is a layout with a ring or a path, and a within-copy edge
        or none (a within-copy edge is a one-copy ring).
        """
        shapes = {}
        for g in enumerate_classes(4):
            ring = g.n_edges == g.n_copies
            within = any(i // 2 == j // 2 for i, j in g.edges)
            shapes.setdefault((g.counts(), ring, within), g)
        assert {(ring, within) for _, ring, within in shapes} == {(True, True), (True, False), (False, False)}
        assert {sum(counts) for counts, _, _ in shapes} == {1, 2, 3, 4}
        graphs = list(shapes.values())
        rng = np.random.default_rng(17)
        pairs = [tuple(random_state(4, measure, rng) for _ in range(2)) for measure in ("ginibre", "pure")]
        pairs.append((np.diag([0, 1, 0, 0]).astype(complex), np.diag([0, 0, 1, 0]).astype(complex)))
        R1s, R2s = (np.stack([to_correlation(pair[k]) for pair in pairs]) for k in (0, 1))
        P = probability_matrix(graphs, R1s, R2s)
        for g, row in zip(graphs, P):
            for p, (rho1, rho2) in zip(row, pairs):
                assert p == pytest.approx(graph_probability(g, rho1, rho2, method="dense"), abs=1e-12), str(g)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        R1s = np.stack([_rand_R(rng) for _ in range(6)])
        R2s = np.stack([_rand_R(rng) for _ in range(6)])
        g = enumerate_classes(2)[5]
        batch = probability_batch(g, R1s, R2s)
        for i in range(6):
            single = probability_batch(g, R1s[i : i + 1], R2s[i : i + 1])[0]
            assert batch[i] == pytest.approx(single, abs=1e-13)

    def test_factorizes_over_components(self):
        """Disconnected copy components multiply independently."""
        rng = np.random.default_rng(3)
        rho1, rho2 = random_state(4, seed=rng), random_state(4, seed=rng)
        lay = ModeLayout((1, 2, 1, 2))
        g = MeasurementGraph(lay, [(0, 2), (4, 6)])  # two disjoint cross edges
        g_left = MeasurementGraph(ModeLayout((1, 2)), [(0, 2)])
        p = graph_probability(g, rho1, rho2)
        p_left = graph_probability(g_left, rho1, rho2)
        assert p == pytest.approx(p_left * p_left, abs=1e-12)

    def test_singlet_projection_on_singlet(self):
        """An edge across copies of the singlet state antibunches never."""
        psi_minus = np.zeros((4, 4), dtype=complex)
        psi_minus[1, 1] = psi_minus[2, 2] = 0.5
        psi_minus[1, 2] = psi_minus[2, 1] = -0.5
        g = MeasurementGraph(ModeLayout((1, 2)), [(0, 2), (1, 3)])
        # joint singlet projection on Psi- x Psi- has probability 1/4
        p = graph_probability(g, psi_minus, psi_minus)
        assert p == pytest.approx(0.25, abs=1e-12)


class TestComponents:
    def test_connected_components_split(self):
        lay = ModeLayout((1, 2, 1, 2))
        comps = connected_components(lay, [(0, 2), (4, 6)])
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_chain_is_one_component(self):
        lay = ModeLayout((1, 2, 1))
        comps = connected_components(lay, [(0, 2), (3, 4)])
        assert len(comps) == 1


class TestSubsumption:
    def test_subgraph_is_subsumed(self):
        lay = ModeLayout((1, 2))
        big = MeasurementGraph(lay, [(0, 2), (1, 3)])
        small = MeasurementGraph(lay, [(0, 2)])
        assert find_embedding(big, small) is not None
        assert find_embedding(small, big) is None

    def test_needs_matching_state_ids(self):
        big = MeasurementGraph(ModeLayout((1, 1)), [(0, 2)])
        small = MeasurementGraph(ModeLayout((1, 2)), [(0, 2)])
        assert find_embedding(big, small) is None

    def test_reflexive(self):
        g = MeasurementGraph(ModeLayout((1, 2)), [(0, 2)])
        assert find_embedding(g, g) is not None


class TestDedupReport:
    def test_counts_frozen(self):
        r = dedup_report()
        assert r["raw_matchings_8_modes"] == 764
        assert r["raw_matchings_formula"] == 764
        assert r["classes_two_copies_each"] == 117
        assert r["classes_two_copies_each_role_swapped"] == 68
        assert r["classes_four_copies_total"] == 237
        assert r["classes_four_copies_total_role_swapped"] == 128

    def test_reference_comparison_reported(self):
        r = dedup_report()
        assert r["reference_class_count"] == 63
        assert set(r["matches_reference"]) == {
            "classes_two_copies_each",
            "classes_two_copies_each_role_swapped",
            "classes_four_copies_total",
            "classes_four_copies_total_role_swapped",
        }

    def test_per_layout_totals(self):
        r = dedup_report()
        assert sum(r["per_layout"].values()) == 237
        assert r["per_layout"][(1, 1)] == 6
