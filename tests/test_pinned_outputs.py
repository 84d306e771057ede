"""Library outputs pinned by digest: certificates, verdicts, search results.

The digests were taken before the integer kernels (``compose``,
``int_inverse``, ``int_det``, ``switch``) were rewritten for sparsity, so
any change to the integers those kernels produce shows up here, not only in
the CLI fixtures of ``test_cli.test_pinned_stdout_bytes``.

``SEARCH_MEMO_DIGEST`` was taken before ``search_isos`` shared candidate
rows between nodes with equal (m, spare, phi(alpha_i)).  It covers the
searches where such nodes are most common: zero matrices, and rationally
trivial matrices with a zero row, where many partial maps give the same
phi(alpha_i).  Hirzebruch pairs and move-related pairs at a huge bound
cover the scalars e = +-2^t with t > 0.  Both search digests were taken
while ``search_isos`` sorted its hits at the end, so they now also pin the
order that the search produces by construction.

``TOWER_DIGEST`` was taken before the well-ordering of a tower stage became
one stable partition pass.  It pins each tower's dimensions, switch
positions, base matrix and index map, the blocks of every level and the
square-zero generators, over seeded matrices with n = 1..8 and partners
scrambled by switches, so that later stages need switches too.
"""

import copy
import json
import random

import bottcert as bc
from bottcert.ring import primitive_part, product_is_zero
from bottcert.serialize import certificate_to_obj, dumps_canonical, verify_certificate_obj
from helpers import digest, moved_partner, rand_matrix, rationally_trivial, scrambled_iso, sparse_matrix

CERT_DIGEST = "e3de9727e18ddc5d420be61d82e58b50508907fbb9aa0771c656bc411b2f0175"
SEARCH_DIGEST = "e2cce42baaf53b50f7222f4809b8b1f68ecfade1347f61ea048e29f401ac0a3d"
SEARCH_MEMO_DIGEST = "17a7c5372dfae9136c73ca2e76d107642d2b7ce2029054ebcbec3d1c5f8414ac"
TOWER_DIGEST = "a6858da8d053c4e3c03adc7c7a726e230465cdc01a1a1c5ca922e3710c91b5d1"


def _verdict(result):
    return f"{result.ok} {result.diagnostic}"


def seeded_certificates():
    """Certificates of 30 scrambled isomorphisms, n = 4..10."""
    rng = random.Random(4242)
    for k in range(30):
        n = 4 + k % 7
        A = sparse_matrix(rng, n, 2)
        yield bc.stabilize_full(scrambled_iso(rng, A, rng.randint(3, 8), twist_mag=1))


def certificate_records():
    """Certificate text plus verdicts on it and on two tampered copies, for each of ``seeded_certificates``."""
    for cert in seeded_certificates():
        obj = certificate_to_obj(cert)
        text = dumps_canonical(obj)
        yield text
        yield _verdict(bc.verify_certificate(cert))
        yield _verdict(verify_certificate_obj(json.loads(text)))
        bad = copy.deepcopy(obj)
        bad["phi_prime"]["C"][0][0] += 1
        yield _verdict(verify_certificate_obj(bad))
        moves = obj["f_seq"]["moves"] or obj["g_seq"]["moves"]
        if moves:
            bad = copy.deepcopy(obj)
            side = "f_seq" if obj["f_seq"]["moves"] else "g_seq"
            bad[side]["moves"].pop()
            yield _verdict(verify_certificate_obj(bad))


def search_records():
    """Matrices and complete search results for move-related pairs, n = 3..5."""
    rng = random.Random(2424)
    for k in range(10):
        n = 3 + k % 3
        A = sparse_matrix(rng, n, 2)
        B = moved_partner(rng, A, rng.randint(1, 3))
        yield repr((A.rows, B.rows, [phi.C for phi in bc.search_isos(A, B, 3)]))


def search_memo_records():
    """Complete search results where many nodes share (m, spare, phi(alpha_i))."""

    def record(A, B, bound):
        found = [phi.C for phi in bc.search_isos(A, B, bound)]
        assert len(found) == len(set(found))  # each hit is reached by one path only
        return repr((A.rows, B.rows, bound, found))

    for n in range(1, 6):
        Z = bc.BottMatrix(n, [[0] * i for i in range(n)])
        for bound in (1, 2):
            yield record(Z, Z, bound)
    rng = random.Random(9090)
    for k in range(8):
        A = rationally_trivial(rng, 4 + k % 2)
        B = A if k % 2 == 0 else moved_partner(rng, A, rng.randint(1, 2))
        yield record(A, B, 2)
    for a in range(-3, 4):
        for b in range(-3, 4):
            H = [bc.BottMatrix(2, [[], [c]]) for c in (a, b)]
            yield record(*H, 6)
    rng = random.Random(3131)
    for _ in range(5):
        A = sparse_matrix(rng, 3, 2)
        B = moved_partner(rng, A, rng.randint(1, 3))
        yield record(A, B, 10**9)


def tower_matrices():
    """Seeded matrices, n = 1..8, each followed by a partner scrambled by switches."""
    rng = random.Random(7373)
    for k in range(800):
        n = 1 + k % 8
        A = rand_matrix(rng, n, 1) if k % 2 else sparse_matrix(rng, n, 2)
        yield A
        yield moved_partner(rng, A, rng.randint(4, 12), twist_mag=0)


def tower_record(A, T):
    levels = []
    for lev in range(1, T.stages + 1):
        # the primitive representative z_r of each base index r of the level, and z_r mod 2
        k = T.dims[lev - 2] if lev >= 2 else 0
        fiber = bc.sub_bar(T.base, k)
        prims = [(r, primitive_part(bc.two_x_minus_alpha(fiber, r - k)))
                 for r in range(k + 1, T.dims[lev - 1] + 1)]
        reps = [(r, tuple(t % 2 for t in z)) for r, z in prims]
        levels.append((bc.blocks_at(T, lev), reps, prims))
    gens = bc.square_zero_generators(A)
    switches = [j for _, j, _ in T.moves_applied]
    return repr((A.rows, T.dims, switches, T.base.rows, T.perm, levels, gens))


def test_certificates_and_verdicts_pinned():
    assert digest(certificate_records()) == CERT_DIGEST


def test_search_results_pinned():
    assert digest(search_records()) == SEARCH_DIGEST


def test_search_memo_cases_pinned():
    assert digest(search_memo_records()) == SEARCH_MEMO_DIGEST


def first_stage_switches(A):
    """The first stage moves a square-zero row r (from 0) with d square-zero rows above it by r - d switches."""
    count = d = 0
    for r in range(A.n):
        if product_is_zero(A, A.alpha(r + 1), A.alpha(r + 1)):
            count += r - d
            d += 1
    return count


def test_towers_pinned():
    records = []
    switches = later_stage_switching = 0
    for A in tower_matrices():
        T = bc.decompose_tower(A)
        records.append(tower_record(A, T))
        switches += len(T.moves_applied)
        # any switch past the first stage's is a later stage's
        later_stage_switching += len(T.moves_applied) > first_stage_switches(A)
    assert switches >= 300 and later_stage_switching >= 30
    assert digest(records) == TOWER_DIGEST


def test_towers_agree_with_a_replay_of_their_switches():
    # decompose_tower fixes perm and levels as it switches; replaying its
    # switches on A and on an index list must give the same tower
    for A in tower_matrices():
        T = bc.decompose_tower(A)
        assert bc.MoveSeq.build(A, T.moves_applied).end == T.base
        order = list(range(A.n + 1))  # order[m]: the origin index at base index m
        for _, j, _ in T.moves_applied:
            order[j], order[j + 1] = order[j + 1], order[j]
        assert [order[m] for m in T.perm] == list(range(A.n + 1))
        cuts = (0,) + T.dims
        for i in range(1, A.n + 1):
            t = T.levels[i]
            assert 1 <= t <= T.stages and cuts[t - 1] < T.perm[i] <= cuts[t]
