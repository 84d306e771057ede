"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the production code paths they check.
``square_zero_bruteforce`` enumerates a coefficient box against the
degree-2 product, with none of the closed-form classification it checks.
``reduce_oracle`` is the suite's only general-degree ring: it brings any
polynomial to normal form on the square-free monomials, substituting the
smallest repeated index first, and ``oracle_product`` and ``oracle_apply``
build on it; the library itself has only the degree-4 closed form.  The
raw isomorphism search enumerates full coefficient boxes with no structural
pruning and checks relations with the oracle.  ``reference_make_iso`` is
``make_iso`` without its closed form for signed unit rows.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import bottcert as bc
from bottcert.iso import int_det


def rand_matrix(rng, n, mag):
    return bc.make_bott_matrix(n, [[rng.randint(-mag, mag) for _ in range(i)] for i in range(n)])


def sparse_matrix(rng, n, mag, p_zero=0.6):
    return bc.make_bott_matrix(
        n,
        [[(rng.randint(-mag, mag) if rng.random() > p_zero else 0) for _ in range(i)] for i in range(n)],
    )


def rand_class(rng, A, mag):
    return bc.Class2(A, [rng.randint(-mag, mag) for _ in range(A.n)])


def square_zero_bruteforce(A, bound):
    """All nonzero z with coefficients in [-bound, bound] and z^2 = 0.

    Plain enumeration against the degree-2 product; serves as the
    independent check of the closed-form classification.
    """
    if bound < 0:
        raise bc.RangeError(f"bound must be >= 0, got {bound}")
    out = []
    coeffs = [-bound] * A.n
    if bound == 0:
        return out
    while True:
        if any(coeffs) and bc.product_is_zero(A, coeffs, coeffs):
            out.append(bc.Class2(A, coeffs))
        pos = A.n - 1
        while pos >= 0 and coeffs[pos] == bound:
            coeffs[pos] = -bound
            pos -= 1
        if pos < 0:
            return out
        coeffs[pos] += 1


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
    return {frozenset((i,)): t for i, t in enumerate(c.coeffs, start=1) if t}


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
    """A term map in the library's residue notation, CohClass(c*x1*x2 + ...)."""
    bits = [
        f"{terms[key]}*{'*'.join(f'x{i}' for i in sorted(key)) or '1'}"
        for key in sorted(terms, key=lambda k: (len(k), sorted(k)))
    ]
    return f"CohClass({' + '.join(bits) or '0'})"


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
    if len(C) != A.n or any(len(row) != A.n for row in C):
        raise bc.ShapeError(f"degree-2 matrix must be {A.n}x{A.n}")
    for row in C:
        for v in row:
            if type(v) is not int:
                raise bc.ShapeError(f"degree-2 matrix has entry {v!r}, not an integer")
    if int_det(C) not in (1, -1):
        raise bc.NotUnimodular(f"det is not +-1 for {C}")
    for i, (img, arow) in enumerate(zip(C, A.rows), start=1):
        diff = img
        for aij, crow in zip(arow, C):
            if aij:
                diff = [d - aij * c for d, c in zip(diff, crow)]
        if not bc.product_is_zero(B, img, diff):
            raise bc.RelationViolated(i, bc.product_terms(B, img, diff))
    return bc.GradedIso(A, B, C)


def dense_product(F, G):
    n = len(G)
    return tuple(tuple(sum(F[i][k] * G[k][j] for k in range(n)) for j in range(n)) for i in range(len(F)))


def compose_dense(g, f):
    """g after f, by ``dense_product``: f's rows written in g's basis."""
    return bc.GradedIso(f.source, g.target, dense_product(f.C, g.C))


def moves_product(start, mvs):
    """The map of moves mvs run from start: the dense product of their induced maps."""
    C = bc.identity_iso(start).C
    for mv in mvs:
        C = dense_product(C, mv.induced.C)
    return C


def rebuild_matches(seq):
    """(moves, end) of seq each equal to those ``rebuild`` gives from its start and its moves' (kind, j, v)."""
    fresh = bc.rebuild(seq.start, [(mv.kind, mv.j, None if mv.v is None else mv.v.coeffs) for mv in seq.moves])
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
        img = bc.Class2(B, rows[i - 1])
        phi_alpha = [0] * n
        for j in range(1, i):
            aij = A.a(i, j)
            if aij:
                for col in range(n):
                    phi_alpha[col] += aij * rows[j - 1][col]
        diff = bc.Class2(B, [r - a for r, a in zip(rows[i - 1], phi_alpha)])
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
        v = bc.Class2(M, list(tail) + [0] * (M.n - j + 1))
        if not oracle_product(M, class_terms(v), class_terms(M.alpha(j) - v)):
            out.append(v)
    return out


def lift_chain(phi, tgt_side, i, t):
    """Lift generator i towards position t by admissible adjacent switches."""
    M = phi.target if tgt_side else phi.source
    for j in range(i, t):
        if M.a(j + 1, j) != 0:
            break
        mv = bc.switch(M, j)
        phi = compose_dense(mv.induced, phi) if tgt_side else compose_dense(phi, bc.invert(mv.induced))
        M = phi.target if tgt_side else phi.source
    return phi


def scrambled_iso(rng, A, rounds, twist_mag=2):
    """Compose the identity with random realizable moves on both sides."""
    phi = bc.identity_iso(A)
    phi = lift_chain(phi, rng.random() < 0.5, 1, A.n)
    for _ in range(rounds):
        tgt_side = rng.random() < 0.5
        M = phi.target if tgt_side else phi.source
        if rng.random() < 0.55 and M.n >= 2:
            i = rng.randint(1, max(1, M.n // 2))
            phi = lift_chain(phi, tgt_side, i, rng.randint(i + 1, M.n))
        else:
            j = rng.randint(1, M.n)
            vs = [v for v in admissible_twists(M, j, twist_mag) if any(v.coeffs)]
            if vs:
                mv = bc.twist(M, j, rng.choice(vs))
                phi = compose_dense(mv.induced, phi) if tgt_side else compose_dense(phi, bc.invert(mv.induced))
    return phi


def moved_partner(rng, A, count, twist_mag=1):
    """A matrix connected to A by a short chain of random moves."""
    M = A
    for _ in range(count):
        if rng.random() < 0.5:
            js = [j for j in range(1, M.n) if M.a(j + 1, j) == 0]
            if js:
                M = bc.switch(M, rng.choice(js)).after
                continue
        j = rng.randint(1, M.n)
        vs = [v for v in admissible_twists(M, j, twist_mag) if any(v.coeffs)]
        if vs:
            M = bc.twist(M, j, rng.choice(vs)).after
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


def block_map(A):
    """index -> (level, block id) for the generators of A, via one tower."""
    T = bc.decompose_tower(A)
    p = T.perm
    out = {}
    for lev in range(1, T.stages + 1):
        blocks = bc.blocks_at(T, lev)
        for b_id, cls in enumerate(blocks.classes):
            for r in cls:
                out[r] = (lev, b_id)
    return {i: out[p[i]] for i in range(1, A.n + 1)}
