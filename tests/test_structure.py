"""Square-zero classification, well-ordering, towers, levels and blocks."""

import random

import pytest

import bottcert as bc
from bottcert import structure
from helpers import block_map, moved_partner, rand_matrix, rebuild_matches, sparse_matrix, square_zero_bruteforce


H3 = bc.make_bott_matrix(3, [[], [1], [1, 0]])
ZERO2 = bc.make_bott_matrix(2, [[], [0]])
ZERO3 = bc.make_bott_matrix(3, [[], [0], [0, 0]])


def hirzebruch(a):
    return bc.make_bott_matrix(2, [[], [a]])


def square_zero(c):
    return bc.product_is_zero(c.context, c.coeffs, c.coeffs)


def h_block_diagonal(parts):
    """Block-diagonal assembly of one-block factors of the given heights."""
    n = sum(parts)
    rows = []
    offset = 0
    for part in parts:
        for i in range(part):
            row = [0] * offset + ([1] + [0] * (i - 1) if i else [])
            rows.append(row)
        offset += part
    return bc.make_bott_matrix(n, rows)


class TestSquareZeroGenerators:
    def test_product_of_lines(self):
        gens = bc.square_zero_generators(ZERO2)
        assert [(g.index, g.gen.coeffs, g.primitive_form.coeffs) for g in gens] == [
            (1, (2, 0), (1, 0)),
            (2, (0, 2), (0, 1)),
        ]

    def test_hirzebruch_odd(self):
        gens = bc.square_zero_generators(hirzebruch(3))
        assert [(g.index, g.gen.coeffs, g.primitive_form.coeffs) for g in gens] == [
            (1, (2, 0), (1, 0)),
            (2, (-3, 2), (-3, 2)),
        ]

    def test_skips_nonzero_square(self):
        A = bc.make_bott_matrix(3, [[], [0], [1, 1]])
        assert [g.index for g in bc.square_zero_generators(A)] == [1, 2]
        assert bc.product_terms(A, A.alpha(3).coeffs, A.alpha(3).coeffs) == {(1, 2): 2}


class TestSquareZeroBruteforce:
    def test_product_of_lines(self):
        got = {z.coeffs for z in square_zero_bruteforce(ZERO2, 2)}
        assert got == {(t, 0) for t in (-2, -1, 1, 2)} | {(0, t) for t in (-2, -1, 1, 2)}

    def test_hirzebruch_odd(self):
        got = {z.coeffs for z in square_zero_bruteforce(hirzebruch(3), 3)}
        assert got == {(-3, 0), (-2, 0), (-1, 0), (1, 0), (2, 0), (3, 0), (-3, 2), (3, -2)}

    def test_bound_zero(self):
        assert square_zero_bruteforce(H3, 0) == []

    def test_classification_small(self):
        # every brute-force hit is an integer multiple of a primitive form,
        # and every primitive multiple inside the box is hit
        rng = random.Random(77)
        for _ in range(40):
            A = rand_matrix(rng, rng.randint(1, 3), 3)
            bound = 4
            brute = {z.coeffs for z in square_zero_bruteforce(A, bound)}
            family = set()
            for g in bc.square_zero_generators(A):
                prim = g.primitive_form.coeffs
                c = 1
                while True:
                    vec = tuple(c * t for t in prim)
                    if any(abs(t) > bound for t in vec):
                        break
                    family.add(vec)
                    family.add(tuple(-t for t in vec))
                    c += 1
            assert brute == family


class TestWellOrder:
    def test_already_ordered(self):
        B, moves, _ = structure._suffix_well_order(H3, 0)
        assert B == H3 and moves == []

    def test_two_stage_always_ordered(self):
        for a in range(-3, 4):
            B, moves, _ = structure._suffix_well_order(hirzebruch(a), 0)
            assert B == hirzebruch(a) and moves == []

    def test_single_switch(self):
        A = bc.make_bott_matrix(4, [[], [0], [1, 1], [0, 0, 0]])
        assert not square_zero(A.alpha(3))
        B, moves, _ = structure._suffix_well_order(A, 0)
        assert [m.j for m in moves] == [3]
        assert B == bc.make_bott_matrix(4, [[], [0], [0, 0], [1, 1, 0]])
        assert rebuild_matches(bc.MoveSeq.build(A, moves)) == (True, True)

    def test_square_zero_flags_sorted(self):
        rng = random.Random(5)
        for _ in range(80):
            A = rand_matrix(rng, rng.randint(1, 6), 2)
            B, _, _ = structure._suffix_well_order(A, 0)
            flags = [square_zero(B.alpha(i)) for i in range(1, B.n + 1)]
            assert flags == sorted(flags, reverse=True)

    def test_failed_switch_is_a_well_order_failure(self, monkeypatch):
        # a square-zero test that wrongly rejects row 1 of H(1) sends row 2 over it, across b_21 = 1
        product_is_zero = structure.product_is_zero
        first = iter([False])
        monkeypatch.setattr(structure, "product_is_zero", lambda A, s, t: next(first, True) and product_is_zero(A, s, t))
        with pytest.raises(bc.WellOrderFailure) as info:
            bc.decompose_tower(hirzebruch(1))
        assert str(info.value) == "well-ordering switch at 1 failed: entry (2,1) is 1, must be 0"
        assert isinstance(info.value.__cause__, bc.SwitchBlocked)


class TestDecomposeTower:
    def test_one_block_factor(self):
        for j in range(1, 6):
            T = bc.decompose_tower(h_block_diagonal([j]))
            assert T.dims == (j,)

    def test_two_stage(self):
        for a in range(-3, 4):
            assert bc.decompose_tower(hirzebruch(a)).dims == (2,)

    def test_two_stages(self):
        A = bc.make_bott_matrix(3, [[], [0], [1, 1]])
        T = bc.decompose_tower(A)
        assert T.dims == (2, 3)
        assert T.moves_applied == ()

    def test_stagewise_square_zero(self):
        rng = random.Random(8)
        for _ in range(60):
            A = rand_matrix(rng, rng.randint(1, 6), 2)
            T = bc.decompose_tower(A)
            assert T.dims[-1] == A.n
            prev = 0
            for d in T.dims:
                fiber = bc.sub_bar(T.base, prev)
                flags = [square_zero(fiber.alpha(i)) for i in range(1, fiber.n + 1)]
                assert all(flags[: d - prev])
                if d - prev < len(flags):
                    assert not flags[d - prev]
                prev = d

    def test_one_square_test_per_fiber_row(self, monkeypatch):
        # a switch carries each row's alpha^2 = 0 flag with it, so a stage
        # tests each fiber row once, however many switches it makes
        calls = 0
        product_is_zero = structure.product_is_zero

        def counted(*args):
            nonlocal calls
            calls += 1
            return product_is_zero(*args)

        monkeypatch.setattr(structure, "product_is_zero", counted)
        rng = random.Random(29)
        switched = 0
        for k in range(200):
            A = sparse_matrix(rng, 2 + k % 7, 2)
            if k % 2:
                A = moved_partner(rng, A, rng.randint(4, 12), twist_mag=0)
            calls = 0
            T = bc.decompose_tower(A)
            assert calls == sum(A.n - cut for cut in (0,) + T.dims[:-1])
            switched += len(T.moves_applied) >= 2
        assert switched >= 20


class TestLevel:
    def test_generator_levels(self):
        A = bc.make_bott_matrix(3, [[], [0], [1, 1]])
        T = bc.decompose_tower(A)
        assert [T.levels[i] for i in (1, 2, 3)] == [1, 1, 2]

    def test_monotone_in_height(self):
        rng = random.Random(9)
        for _ in range(60):
            A = rand_matrix(rng, rng.randint(1, 6), 2)
            T = bc.decompose_tower(A)
            levels = [T.levels[i] for i in sorted(range(1, A.n + 1), key=T.perm.__getitem__)]
            assert levels == sorted(levels)


class TestBlocks:
    def test_one_block(self):
        T = bc.decompose_tower(H3)
        blocks = bc.blocks_at(T, 1)
        assert blocks.classes == ((1, 2, 3),)
        assert blocks.reps[1] == (1, 0, 0)
        assert blocks.reps[2] == (1, 0, 0)  # 2x2 - x1 mod 2
        assert blocks.primitives[1].coeffs == (1, 0, 0)

    def test_singletons(self):
        T = bc.decompose_tower(ZERO3)
        assert bc.blocks_at(T, 1).classes == ((1,), (2,), (3,))

    def test_two_factors(self):
        A = h_block_diagonal([2, 2])
        T = bc.decompose_tower(A)
        assert bc.blocks_at(T, 1).classes == ((1, 2), (3, 4))

    def test_level_out_of_range(self):
        T = bc.decompose_tower(H3)
        with pytest.raises(bc.RangeError):
            bc.blocks_at(T, 2)

    def test_independent_of_extra_switch(self):
        # an admissible switch across a stage boundary relabels indices but
        # must not change the block structure
        A = bc.make_bott_matrix(4, [[], [1], [1, 0], [1, 1, 0]])
        T = bc.decompose_tower(A)
        assert T.dims == (3, 4) and T.moves_applied == ()
        TS = bc.decompose_tower(bc.switch(A, 3).after)
        relabel = {1: 1, 2: 2, 3: 4, 4: 3}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert bc.same_block(T, i, j) == bc.same_block(TS, relabel[i], relabel[j])


class TestSameBlock:
    def test_odd_subdiagonal_joins(self):
        A = bc.make_bott_matrix(3, [[], [0], [0, 1]])
        assert bc.same_block(bc.decompose_tower(A), 2, 3)

    def test_odd_subdiagonal_separates_lower(self):
        A = bc.make_bott_matrix(3, [[], [0], [0, 1]])
        assert not bc.same_block(bc.decompose_tower(A), 1, 3)

    def test_different_levels(self):
        A = bc.make_bott_matrix(3, [[], [0], [1, 1]])
        assert not bc.same_block(bc.decompose_tower(A), 1, 3)

    @pytest.mark.parametrize("bad", [0, -1, 4])
    def test_index_outside_range(self, bad):
        # levels[0] and perm[0] are placeholders; no index outside 1..n may reach them
        T = bc.decompose_tower(bc.make_bott_matrix(3, [[], [0], [0, 1]]))
        with pytest.raises(bc.RangeError):
            bc.same_block(T, bad, 2)
        with pytest.raises(bc.RangeError):
            bc.same_block(T, 1, bad)

    def test_odd_subdiagonal_cases_random(self):
        rng = random.Random(31)
        seen = 0
        for _ in range(200):
            A = rand_matrix(rng, rng.randint(2, 5), 2)
            base = bc.decompose_tower(A).base
            T = bc.decompose_tower(base)
            for j in range(1, base.n):
                if base.a(j + 1, j) % 2 == 1:
                    if T.levels[j] == T.levels[j + 1]:
                        assert bc.same_block(T, j, j + 1)
                        seen += 1
                    for i in range(1, j):
                        assert not bc.same_block(T, i, j + 1)
        assert seen > 10


class TestQTrivialPartition:
    def test_one_block_factor(self):
        assert bc.qtrivial_partition(bc.decompose_tower(H3)) == (3,)

    def test_product_of_lines(self):
        assert bc.qtrivial_partition(bc.decompose_tower(ZERO3)) == (1, 1, 1)

    def test_not_qtrivial(self):
        assert bc.qtrivial_partition(bc.decompose_tower(bc.make_bott_matrix(3, [[], [0], [1, 1]]))) is None

    def partitions(self, n):
        if n == 0:
            yield []
            return
        for first in range(n, 0, -1):
            for rest in self.partitions(n - first):
                if not rest or rest[0] <= first:
                    yield [first] + rest

    def test_all_partitions_up_to_six(self):
        for n in range(1, 7):
            for parts in self.partitions(n):
                A = h_block_diagonal(parts)
                assert bc.qtrivial_partition(bc.decompose_tower(A)) == tuple(sorted(parts, reverse=True))

    def test_block_map_helper_consistency(self):
        A = h_block_diagonal([2, 1])
        bm = block_map(A)
        assert bm[1] == bm[2] and bm[1] != bm[3]
