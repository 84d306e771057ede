"""Shared generators and independent judges for the test suite.

Each helper has one role.  The generators draw or enumerate inputs.  The
two that filter a box of candidates filter with the library's one
degree-2 product kernel, ``ring.product_is_zero``: ``square_zero_bruteforce``
keeps every z with z^2 = 0, with none of the closed-form classification it
checks, and ``admissible_twists`` keeps every v of height < j with
v(beta_j - v) = 0, in box order.  ``nonzero_twists``, ``scrambled_iso``
and ``moved_partner`` draw from it; ``rationally_trivial`` uses the same
kernel.

The judges deliberately avoid the production code paths they check, and no
generator calls them.  ``reduce_oracle`` is the suite's only general-degree
ring: it brings any polynomial to normal form on the square-free monomials,
substituting the smallest repeated index first, and ``oracle_product`` and
``oracle_apply`` build on it; the library itself has only the degree-4
closed form.  ``fraction_det`` and ``fraction_inverse`` are the
determinant and the inverse in exact fractions.  ``raw_iso_search``
enumerates full coefficient boxes with no structural pruning and checks
relations with the oracle.  ``reference_make_iso`` is ``make_iso`` without
its closed form for signed unit rows, and ``reference_search_isos`` is
``search_isos`` without its completions memo.  ``induced`` writes a move's
map as a plain identity matrix with two rows swapped or v added to a row,
and ``dense_product`` multiplies such maps, apart from ``rebuild`` and the
folds.
``test_moves.py::TestTwist::test_sampler_and_twist_agree_with_the_oracle``
holds the kernel-filtered sampler to the oracle: over every v of a box it
requires that ``admissible_twists`` keeps v, that the oracle finds
v(beta_j - v) = 0 and that ``bc.twist`` accepts v, all three or none.

``_records`` writes a run as the lines the pinned traces hash, one per
event of ``StabilizeTrace.steps()``, and ``sweep`` is the one driver of
the pinned sweeps.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import bottcert as bc
from bottcert import moves
from bottcert.iso import int_det
from bottcert.ring import product_is_zero, product_terms
from bottcert.serialize import certificate_to_obj, dumps_canonical, verify_certificate_obj


def rand_matrix(rng, n, mag):
    return bc.BottMatrix(n, [[rng.randint(-mag, mag) for _ in range(i)] for i in range(n)])


def sparse_matrix(rng, n, mag, p_zero=0.6):
    return bc.BottMatrix(
        n,
        [[(rng.randint(-mag, mag) if rng.random() > p_zero else 0) for _ in range(i)] for i in range(n)],
    )


def rationally_trivial(rng, n):
    """A matrix with a zero row below the first, every alpha_i squaring to zero."""
    while True:
        rows = [list(r) for r in sparse_matrix(rng, n, 2, p_zero=0.5).rows]
        z = rng.randint(2, n - 1)
        rows[z - 1] = [0] * (z - 1)
        A = bc.BottMatrix(n, rows)
        alphas = [A.alpha(i) for i in range(1, n + 1)]
        if any(map(any, A.rows)) and all(product_is_zero(A, a, a) for a in alphas):
            return A


def rand_class(rng, A, mag):
    return tuple(rng.randint(-mag, mag) for _ in range(A.n))


def square_zero_bruteforce(A, bound):
    """All nonzero z with coefficients in [-bound, bound] and z^2 = 0.

    Plain enumeration against the degree-2 product; serves as the
    independent check of the closed-form classification.
    """
    if bound < 0:
        raise bc.RangeError(f"bound must be >= 0, got {bound}")
    box = itertools.product(range(-bound, bound + 1), repeat=A.n)
    return [z for z in box if any(z) and product_is_zero(A, z, z)]


def reduce_oracle(raw, A):
    """Normal form by substituting the smallest repeated index first."""
    acc = {}

    def add(key, c):
        if c:
            acc[key] = acc.get(key, 0) + c
            if not acc[key]:
                del acc[key]

    work = [(tuple(sorted(m)), c) for m, c in raw.items() if c]
    while work:
        mono, coeff = work.pop()
        rep = None
        for pos in range(1, len(mono)):
            if mono[pos] == mono[pos - 1]:
                rep = pos
                break
        if rep is None:
            add(frozenset(mono), coeff)
            continue
        i = mono[rep]
        rest = mono[: rep - 1] + mono[rep + 1 :]
        for j in range(1, i):
            aij = A.a(i, j)
            if aij:
                work.append((tuple(sorted(rest + (j, i))), coeff * aij))
    return acc


def class_terms(c):
    """A degree-2 class as a term map {frozenset({i}): t_i}."""
    return {frozenset((i,)): t for i, t in enumerate(c, start=1) if t}


def oracle_product(A, a, b):
    """Normal form of the product of two term maps."""
    raw = {}
    for s, cs in a.items():
        for t, ct in b.items():
            mono = tuple(sorted((*s, *t)))
            raw[mono] = raw.get(mono, 0) + cs * ct
    return reduce_oracle(raw, A)


def oracle_apply(phi, terms):
    """Image of a term map under phi: each x_i goes to phi(x_i), then reduce."""
    raw = {}
    for key, coeff in terms.items():
        expanded = {(): coeff}
        for i in sorted(key):
            row = phi.C[i - 1]
            expanded = {m + (j,): c * t for m, c in expanded.items() for j, t in enumerate(row, start=1) if t}
        for mono, c in expanded.items():
            raw[mono] = raw.get(mono, 0) + c
    return reduce_oracle(raw, phi.target)


def render_terms(terms):
    """A term map in the library's residue notation, c*x1*x2 + ..., or 0 when it is empty."""
    bits = [
        f"{terms[key]}*{'*'.join(f'x{i}' for i in sorted(key)) or '1'}"
        for key in sorted(terms, key=lambda k: (len(k), sorted(k)))
    ]
    return " + ".join(bits) or "0"


def fraction_det(C):
    n = len(C)
    m = [[Fraction(e) for e in row] for row in C]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [e * inv for e in m[col]]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col]
                m[r] = [e - f * p for e, p in zip(m[r], m[col])]
    return det


def fraction_inverse(C):
    """Gauss-Jordan inverse in Fraction, raising as ``iso.int_inverse`` does.

    The reference for ``int_inverse``: a singular matrix is "not invertible",
    an invertible one whose inverse has a denominator is "not integral".
    """
    n = len(C)
    work = [[Fraction(e) for e in row] + [Fraction(int(r == c)) for c in range(n)]
            for r, row in enumerate(C)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise bc.NotUnimodular("matrix is not invertible over the integers")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [e * inv for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [e - f * p for e, p in zip(work[r], work[col])]
    if any(e.denominator != 1 for row in work for e in row[n:]):
        raise bc.NotUnimodular("inverse is not integral")
    return tuple(tuple(int(e) for e in row[n:]) for row in work)


def reference_make_iso(A, B, C):
    """``make_iso`` with every row checked densely: ``int_det``, then ``product_is_zero``.

    The reference for ``iso.make_iso``'s closed form on signed unit rows:
    the same result, or the same exception with the same message and terms.
    """
    if A.n != B.n:
        raise bc.ShapeError(f"source has n={A.n} but target has n={B.n}")
    C = tuple(tuple(row) for row in C)
    for row in C:
        if len(row) != A.n:
            raise bc.ShapeError(f"degree-2 matrix row must have {A.n} entries, got {len(row)}")
        for v in row:
            if type(v) is not int:
                raise bc.ShapeError(f"degree-2 matrix row has entry {v!r}, not an integer")
    if len(C) != A.n:
        raise bc.ShapeError(f"degree-2 matrix must be {A.n}x{A.n}")
    if int_det(C) not in (1, -1):
        raise bc.NotUnimodular(f"det is not +-1 for {C}")
    for i, (img, arow) in enumerate(zip(C, A.rows), start=1):
        diff = img
        for aij, crow in zip(arow, C):
            if aij:
                diff = [d - aij * c for d, c in zip(diff, crow)]
        if not product_is_zero(B, img, diff):
            raise bc.RelationViolated(i, product_terms(B, img, diff))
    return bc.GradedIso(A, B, C)


def reference_search_isos(A, B, bound):
    """``search_isos`` as it was before it memoized a node's completions: node by node.

    The reference for ``iso.search_isos``'s completions memo: the same hits
    in the same order.  Each node solves its children, the rows over its free
    targets, through the same two dicts, and recurses into every child.
    """
    if A.n != B.n or bound < 1:
        return []
    n = A.n
    lev_a = bc.decompose_tower(A).levels
    lev_b = bc.decompose_tower(B).levels[1:]  # 0-based, like frames and used
    frames = [[-b for b in row] + [2] + [0] * (n - 1 - m) for m, row in enumerate(B.rows)]
    scalars = [(t, sign << t) for t in range(n + 1) for sign in (1, -1)]
    memo = {}
    children_of = {}

    def candidates(m, spare, phi_alpha):
        """The (row, m, t) triples with t <= spare that pass every row filter for target m."""
        key = (m, spare, phi_alpha)
        if key in memo:
            return memo[key]
        out = memo[key] = []
        pm = phi_alpha[m]
        # the two prefilters on entry m (see search_isos); scalars ascend in |e|
        limit = 2 * bound + abs(pm)
        # row = (e * frame + 2 * phi_alpha) / 4 with e = 2 eps = +-2^t
        for t, e in scalars:
            if t > spare or abs(e) > limit:
                break
            if (e - pm) % 2:
                continue
            numer = [e * f + 2 * p for f, p in zip(frames[m], phi_alpha)]
            if any(v % 4 for v in numer):
                continue
            row = tuple(v // 4 for v in numer)
            if any(abs(v) > bound for v in row) or gcd(*row) != 1:
                continue
            # relation phi(x_i) (phi(x_i) - phi(alpha_i)) = 0
            if not product_is_zero(B, row, [r - p for r, p in zip(row, phi_alpha)]):
                continue
            out.append((row, m, t))
        return out

    found = []

    def extend(i, spare, used, rows):
        phi_alpha = [0] * n
        for j, aij in enumerate(A.rows[i - 1]):
            if aij:
                for col, c in enumerate(rows[j]):
                    phi_alpha[col] += aij * c
        phi_alpha = tuple(phi_alpha)
        key = (lev_a[i], spare, phi_alpha, used)
        children = children_of.get(key)
        if children is None:
            children = children_of[key] = []
            for m in range(n):
                if not used >> m & 1 and lev_b[m] == lev_a[i]:
                    children += candidates(m, spare, phi_alpha)
            children.sort()
        for row, m, t in children:
            if i < n:
                extend(i + 1, spare - t, used | 1 << m, rows + (row,))
            elif t == spare:
                found.append(rows + (row,))

    extend(1, n, 0, ())
    del extend  # it refers to itself; the cycle would keep its state alive until a full GC
    return [bc.GradedIso(A, B, C) for C in found]


def dense_product(F, G):
    n = len(G)
    return tuple(tuple(sum(F[i][k] * G[k][j] for k in range(n)) for j in range(n)) for i in range(len(F)))


def compose_dense(g, f):
    """g after f, by ``dense_product``: f's rows written in g's basis."""
    return bc.GradedIso(f.source, g.target, dense_product(f.C, g.C))


def identity(A):
    """The identity map of A."""
    return bc.GradedIso(A, A, tuple(tuple(int(r == c) for c in range(A.n)) for r in range(A.n)))


def induced(n, mv):
    """The rows of the map the move mv = (kind, j, v) induces on an n x n matrix: identity rows j, j+1
    swapped, or v added to row j."""
    kind, j, v = mv
    C = [[int(r == c) for c in range(n)] for r in range(n)]
    if kind == "switch":
        C[j - 1], C[j] = C[j], C[j - 1]
    else:
        C[j - 1] = [e + t for e, t in zip(C[j - 1], v)]
    return tuple(map(tuple, C))


def move_iso(B, mv):
    """The isomorphism mv induces, from B onto the matrix after mv."""
    return bc.GradedIso(B, moves._apply(B, *mv)[1], induced(B.n, mv))


def moves_product(start, mvs):
    """The map of moves mvs run from start: the dense product of their induced maps."""
    C = identity(start).C
    for mv in mvs:
        phi = move_iso(start, mv)
        C, start = dense_product(C, phi.C), phi.target
    return C


def rebuild_matches(seq):
    """(moves, end) of seq each equal to those ``rebuild`` gives from its start and its moves (kind, j, v)."""
    fresh = bc.rebuild(seq.start, seq.moves)
    return fresh.moves == seq.moves, fresh.end == seq.end


def claim_product(phi, f_seq, g_seq):
    """The matrix of g o phi o f, by dense products of the sequences' move maps."""
    F = moves_product(f_seq.start, f_seq.moves)
    return dense_product(dense_product(F, phi.C), moves_product(g_seq.start, g_seq.moves))


def raw_iso_search(A, B, bound):
    """Exhaustive box enumeration of valid isomorphism matrices.

    Rows range over every vector with entries in [-bound, bound]; a partial
    assignment is kept only if the relation x_i^2 = alpha_i x_i maps to a
    true identity, and complete matrices must have determinant +1 or -1.
    Exponential, so only usable for small n and bound.
    """
    n = A.n
    if B.n != n:
        return []
    box = list(itertools.product(range(-bound, bound + 1), repeat=n))
    found = []
    rows = []

    def relation_ok(i):
        img = rows[i - 1]
        phi_alpha = [0] * n
        for j in range(1, i):
            aij = A.a(i, j)
            if aij:
                for col in range(n):
                    phi_alpha[col] += aij * rows[j - 1][col]
        diff = [r - a for r, a in zip(rows[i - 1], phi_alpha)]
        return not oracle_product(B, class_terms(img), class_terms(diff))

    def extend(i):
        if i > n:
            if fraction_det(rows) in (1, -1):
                found.append(tuple(rows))
            return
        for cand in box:
            rows.append(cand)
            if relation_ok(i):
                extend(i + 1)
            rows.pop()

    extend(1)
    return sorted(found)


def admissible_twists(M, j, mag):
    """All v with entries in [-mag, mag], height < j and v(beta_j - v) = 0."""
    out = []
    for tail in itertools.product(range(-mag, mag + 1), repeat=j - 1):
        v = tail + (0,) * (M.n - j + 1)
        if product_is_zero(M, v, [a - t for a, t in zip(M.alpha(j), v)]):
            out.append(v)
    return out


def nonzero_twists(M, j, mag):
    """``admissible_twists`` without the zero vector."""
    return [v for v in admissible_twists(M, j, mag) if any(v)]


def free_switches(M):
    """The positions j at which M allows a switch: a_{j+1,j} = 0."""
    return [j for j in range(1, M.n) if M.a(j + 1, j) == 0]


def lift_chain(phi, tgt_side, i, t):
    """Lift generator i towards position t by admissible adjacent switches."""
    M = phi.target if tgt_side else phi.source
    for j in range(i, t):
        if M.a(j + 1, j) != 0:
            break
        mv = move_iso(M, ("switch", j, None))
        phi = compose_dense(mv, phi) if tgt_side else compose_dense(phi, bc.invert(mv))
        M = phi.target if tgt_side else phi.source
    return phi


def scrambled_iso(rng, A, rounds, twist_mag=2):
    """Compose the identity with random realizable moves on both sides."""
    phi = identity(A)
    phi = lift_chain(phi, rng.random() < 0.5, 1, A.n)
    for _ in range(rounds):
        tgt_side = rng.random() < 0.5
        M = phi.target if tgt_side else phi.source
        if rng.random() < 0.55 and M.n >= 2:
            i = rng.randint(1, max(1, M.n // 2))
            phi = lift_chain(phi, tgt_side, i, rng.randint(i + 1, M.n))
        else:
            j = rng.randint(1, M.n)
            vs = nonzero_twists(M, j, twist_mag)
            if vs:
                mv = move_iso(M, ("twist", j, rng.choice(vs)))
                phi = compose_dense(mv, phi) if tgt_side else compose_dense(phi, bc.invert(mv))
    return phi


def moved_partner(rng, A, count, twist_mag=1):
    """A matrix connected to A by a short chain of random moves."""
    M = A
    for _ in range(count):
        if rng.random() < 0.5:
            js = free_switches(M)
            if js:
                M = bc.switch(M, rng.choice(js))
                continue
        j = rng.randint(1, M.n)
        vs = nonzero_twists(M, j, twist_mag)
        if vs:
            M = bc.twist(M, j, rng.choice(vs))
    return M


def trace_isos():
    """Isomorphisms whose stabilization takes the proof's harder paths.

    Up to three hits, spread over each result, of ``search_isos`` at bound
    2 between move-related pairs (n = 3..4), seeded like the base
    certificates of the certificate fuzz test, then four scrambled
    isomorphisms (n = 4..6).  Between them they take zero, even and odd key
    steps, twists and odd branches.
    """
    rng = random.Random(5150)
    for _ in range(10):
        A = sparse_matrix(rng, rng.randint(3, 4), 2)
        B = moved_partner(rng, A, rng.randint(1, 3))
        hits = bc.search_isos(A, B, 2)
        yield from hits[:: max(1, len(hits) // 3)][:3]
    for _ in range(4):
        A = sparse_matrix(rng, rng.randint(4, 6), 2)
        yield scrambled_iso(rng, A, 5, twist_mag=1)


def fuzz_base_isos():
    """The isomorphisms behind the certificate fuzz test's base certificates.

    The first hit of ``search_isos`` at bound 2 for each of eight
    move-related pairs (n = 3..4), then four scrambled isomorphisms
    (n = 4..6).
    """
    rng = random.Random(5150)
    for _ in range(8):
        A = sparse_matrix(rng, rng.randint(3, 4), 2)
        B = moved_partner(rng, A, rng.randint(1, 3))
        yield from bc.search_isos(A, B, 2)[:1]
    for _ in range(4):
        A = sparse_matrix(rng, rng.randint(4, 6), 2)
        yield scrambled_iso(rng, A, 5, twist_mag=1)


def odd_twist_isos():
    """Self-isomorphisms whose stabilization takes odd key steps that twist by v != 0.

    The hits of ``search_isos`` at bound 2 on one n = 4 matrix with entries
    down to -2.  The sweeps' entries lie in -1..1, and every odd key step
    they take twists by v = 0; sixteen of these runs take an odd
    target-side step at k = 1, l = 4 that twists by v = -y_2.
    """
    A = bc.BottMatrix(4, [[], [-2], [-2, -2], [-1, -1, 0]])
    return bc.search_isos(A, A, 2)


def _step(st):
    return repr((st.case, st.ell, st.p, st.e, st.w, st.u))


def _records(cert, trace):
    """The certificate text, then one line per event of ``trace.steps()``: a key step, or an odd branch's
    (p, final entry)."""
    yield dumps_canonical(certificate_to_obj(cert))
    for _, side, rec in trace.steps():
        yield repr((rec.p, rec.final_entry)) if side == "odd" else _step(rec)


def digest(records):
    """The sha256 of the records' lines, hashed as they come."""
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode() + b"\n")
    return h.hexdigest()


def rounds(trace):
    """Each round of a run as (k, records): the records ``trace.steps()`` yields for round k, by side."""
    for k, events in itertools.groupby(trace.steps(), key=lambda ev: ev[0]):
        by_side = {"target": [], "odd": [], "source": [], "final": []}
        for _, side, rec in events:
            by_side[side].append(rec)
        yield k, by_side


def sweep_hits(n, lo, hi, hits, stride=1):
    """The first ``hits`` self-isomorphisms at bound 2 of every ``stride``-th n x n Bott matrix with entries
    in lo..hi, taken in ``itertools.product`` order; a matrix's rows are cut from the product's tuple by
    length."""
    entries = itertools.product(range(lo, hi + 1), repeat=n * (n - 1) // 2)
    for flat in itertools.islice(entries, 0, None, stride):
        A = bc.BottMatrix(n, [flat[i * (i - 1) // 2:i * (i + 1) // 2] for i in range(n)])
        yield from bc.search_isos(A, A, 2)[:hits]


def sweep(isos) -> tuple[str, Counter, int]:
    """(digest, counts, failures) of stabilizing each of ``isos``, the one driver of the pinned sweeps: the
    ``digest`` of every run's ``_records``, the certificates, key steps ("side case") and odd branches
    counted, and the certificates that fail to verify in memory or through their JSON text."""
    counts = Counter()

    def records():
        for phi in isos:
            cert, trace = bc.stabilize_full(phi, with_trace=True)
            recs = list(_records(cert, trace))
            ok = bc.verify_certificate(cert).ok and verify_certificate_obj(json.loads(recs[0])).ok
            counts["failed"] += not ok
            counts["certificates"] += 1
            counts.update("odd branch" if side == "odd" else f"{side} {rec.case}" for _, side, rec in trace.steps())
            yield from recs

    hexdigest = digest(records())
    return hexdigest, counts, counts.pop("failed")


def json_slots(node):
    """(container, key) of every value inside a JSON value, in pre-order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, val in items:
        yield node, key
        yield from json_slots(val)


def counting(calls, key, fn):
    """fn, counting its calls in calls[key]."""
    def call(*args):
        calls[key] += 1
        return fn(*args)
    return call


def block_map(A):
    """index -> (level, block id) for the generators of A, via one tower."""
    T = bc.decompose_tower(A)
    p = T.perm
    out = {}
    for lev in range(1, T.stages + 1):
        for b_id, cls in enumerate(bc.blocks_at(T, lev)):
            for r in cls:
                out[r] = (lev, b_id)
    return {i: out[p[i]] for i in range(1, A.n + 1)}


def hirzebruch(a):
    """The n = 2 Bott matrix with entry a: a Hirzebruch surface."""
    return bc.BottMatrix(2, [[], [a]])


def zero_matrix(n):
    """The n x n Bott matrix with every entry zero: the product of n projective lines."""
    return bc.BottMatrix(n, [[0] * i for i in range(n)])
