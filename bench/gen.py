"""Seeded input generator for the benchmark, in plain integers.

Everything here works on plain data: a Bott matrix is a tuple of rows (row i
holds a_i1..a_i,i-1, 1-based as in the library) and an isomorphism is its
degree-2 matrix C.  The moves are reimplemented with the closed-form
degree-2 product, so the scrambler scales to n = 12 without enumerating
twist vectors, and the generated inputs do not depend on how the library
computes.  Two inputs need the library itself.  Isomorphisms found by search
on move-related pairs reach the odd branch of stabilization, which move
scrambling alone rarely does; the search result is the complete set of maps
within the bound, fixed by the seed.  The certificate texts of ``verify`` are
what the library's stabilization builds, so a change to the moves it chooses
changes the inputs' fingerprint.

``generate(name, seed, lib, seconds)`` returns a JSON-serializable object
sized for a run of ``seconds``; the same arguments give the same object, and
``fingerprint`` hashes it.
"""

from __future__ import annotations

import hashlib
import json
import random

# Input counts for a run of NOMINAL_SECONDS (run.py sets how many passes
# over the list a run makes); other run lengths scale them.  Inputs are drawn
# in fixed quotas per stratum (size and whether the map is already
# (n-2)-stable, or the number of nonzero matrix entries), so that the cost of
# a run does not swing with the seed's share of cheap and dear inputs.
NOMINAL_SECONDS = 20
CERTIFY_SCRAMBLED = {6: (120, 40), 8: (120, 40), 10: (80, 30), 12: (50, 20)}  # n: (stable, not)
CERTIFY_ORGANIC = 100
VERIFY_SCRAMBLED = {4: (40, 40), 6: (60, 20), 8: (40, 20), 10: (40, 20)}
VERIFY_ORGANIC = 60
SEARCH_PAIRS = {1: 300, 2: 390, 3: 300}  # nonzero entries of the 3x3 matrix: count
SEARCH_BOUND = 6
# the zero-matrix searches are the slowest operations; with 1002 operations
# the tail percentile (p99) falls among them
SEARCH_ZERO = {5: 12}
CLI_FIXTURES = 20
CLI_SEARCH_BOUND = 3
TAMPERS = ("phi_prime", "drop_move", "move_j", "twist_v", "k_final")


# ------------------------------------------------------------ integer model


def entry(M, i, j):
    """a_ij (1-based), zero on and above the diagonal."""
    return M[i - 1][j - 1] if j < i else 0


def product_is_zero(M, s, t):
    """Whether s * t = 0 for degree-2 classes s, t over M.

    The coefficient of x_j x_i (j < i) in s * t is
    s_j t_i + s_i t_j + s_i t_i a_ij, since x_i^2 = sum_j a_ij x_j x_i.
    """
    n = len(M)
    for i in range(n):
        for j in range(i):
            if s[j] * t[i] + s[i] * t[j] + s[i] * t[i] * M[i][j]:
                return False
    return True


def identity(n):
    return [[int(r == c) for c in range(n)] for r in range(n)]


def can_switch(M, j):
    return 1 <= j < len(M) and entry(M, j + 1, j) == 0


# A move is ("switch", j) or ("twist", j, v); its induced map sends y_j to
# y_j + v for a twist and swaps y_j, y_{j+1} for a switch.  The composites
# below apply one move to a degree-2 matrix C without forming D.


def apply_right(C, mv):
    """C D for the induced matrix D of the move."""
    C = [list(r) for r in C]
    j = mv[1]
    for row in C:
        if mv[0] == "switch":
            row[j - 1], row[j] = row[j], row[j - 1]
        else:
            t = row[j - 1]
            if t:
                for c, vc in enumerate(mv[2]):
                    row[c] += t * vc
    return C


def apply_left_inverse(mv, C):
    """D^-1 C for the induced matrix D of the move."""
    C = [list(r) for r in C]
    j = mv[1]
    if mv[0] == "switch":
        C[j - 1], C[j] = C[j], C[j - 1]
    else:
        row = C[j - 1]
        for c, vc in enumerate(mv[2]):
            if vc:
                row[:] = [a - vc * b for a, b in zip(row, C[c])]
    return C


def switch(M, j):
    """(matrix after, move) for the switch at j; requires a_{j+1,j} = 0."""
    n = len(M)

    def swap(i):
        return j + 1 if i == j else j if i == j + 1 else i

    after = tuple(tuple(entry(M, swap(i), swap(c)) for c in range(1, i)) for i in range(1, n + 1))
    return after, ("switch", j)


def twist(M, j, v):
    """(matrix after, move) for the twist at j by an admissible v."""
    n = len(M)
    rows = []
    for i in range(1, n + 1):
        if i < j:
            rows.append(tuple(M[i - 1]))
        elif i == j:
            rows.append(tuple(entry(M, j, c) - 2 * v[c - 1] for c in range(1, j)))
        else:
            b = entry(M, i, j)
            rows.append(tuple(entry(M, i, c) + (b * v[c - 1] if c < j else 0) for c in range(1, i)))
    return tuple(rows), ("twist", j, tuple(v))


def sample_twist(rng, M, j, mag, tries=12):
    """A nonzero admissible v of height < j, or None.

    Tries sparse candidates with one or two nonzero entries, keeping the
    first with v(beta_j - v) = 0; falls back to v = beta_j, which is always
    admissible.
    """
    n = len(M)
    beta = [entry(M, j, c) for c in range(1, n + 1)]
    if j >= 2:
        for _ in range(tries):
            v = [0] * n
            for _ in range(rng.randint(1, 2)):
                v[rng.randrange(j - 1)] = rng.choice([t for t in range(-mag, mag + 1) if t])
            if product_is_zero(M, v, [b - x for b, x in zip(beta, v)]):
                return v
    return beta if any(beta) else None


def sparse_matrix(rng, n, mag, p_zero=0.6):
    return tuple(
        tuple((rng.randint(-mag, mag) if rng.random() > p_zero else 0) for _ in range(i))
        for i in range(n)
    )


def matrix_with_nonzeros(rng, n, count, mag):
    """A Bott matrix with exactly ``count`` nonzero entries in [-mag, mag]."""
    cells = [(i, j) for i in range(n) for j in range(i)]
    rows = [[0] * i for i in range(n)]
    for i, j in rng.sample(cells, count):
        rows[i][j] = rng.choice([t for t in range(-mag, mag + 1) if t])
    return tuple(tuple(r) for r in rows)


def random_move(rng, M, mag):
    """A random admissible switch or twist on M, or None."""
    n = len(M)
    if rng.random() < 0.5:
        js = [j for j in range(1, n) if can_switch(M, j)]
        if js:
            return switch(M, rng.choice(js))
    j = rng.randint(1, n)
    v = sample_twist(rng, M, j, mag)
    return twist(M, j, v) if v is not None else None


def moved_partner(rng, A, count, mag=1):
    """(B, C): B reached from A by random moves, C the composite A -> B."""
    M, C = A, identity(len(A))
    for _ in range(count):
        step = random_move(rng, M, mag)
        if step is not None:
            M, mv = step
            C = apply_right(C, mv)
    return M, C


def scrambled_iso(rng, A, rounds, mag=2):
    """(source, target, C): the identity of A composed with random moves.

    Moves land on either side.  A target-side move with induced D maps C to
    C D; a source-side move replaces the source matrix and maps C to D^-1 C.
    """
    src, tgt, C = A, A, identity(len(A))
    n = len(A)
    for _ in range(rounds):
        tgt_side = rng.random() < 0.5
        M = tgt if tgt_side else src
        if rng.random() < 0.55:
            i = rng.randint(1, max(1, n // 2))
            steps = []
            for j in range(i, rng.randint(i + 1, n)):
                if not can_switch(M, j):
                    break
                step = switch(M, j)
                steps.append(step)
                M = step[0]
        else:
            j = rng.randint(2, n)
            v = sample_twist(rng, M, j, mag)
            steps = [twist(M, j, v)] if v is not None else []
        for after, mv in steps:
            if tgt_side:
                tgt, C = after, apply_right(C, mv)
            else:
                src, C = after, apply_left_inverse(mv, C)
    return src, tgt, C


def max_stable(C):
    """Largest k <= n-1 with C_ij = 0 for i <= k < j; n when (n-1)-stable."""
    n = len(C)
    best = 0
    for k in range(1, n):
        if all(C[i][j] == 0 for i in range(k) for j in range(k, n)):
            best = k
    return n if best == n - 1 else best


def rows_list(M):
    return [list(r) for r in M]


# ------------------------------------------------------------ workloads


def _count(base, scale):
    return max(1, round(base * scale))


def _organic_isos(rng, count, lib):
    """Search-found isomorphisms on move-related pairs, n = 3..4.

    Taken from ``search_isos`` at bound 2 and kept when not already
    (n-2)-stable, so that stabilization has work to do.  The search result
    is the complete set of valid maps within the bound, so this set depends
    only on the seed, not on how the library finds it.
    """
    out = []
    while len(out) < count:
        n = rng.randint(3, 4)
        A = sparse_matrix(rng, n, 2)
        B, _ = moved_partner(rng, A, rng.randint(1, 3))
        found = lib.search_isos(lib.make_bott_matrix(n, A), lib.make_bott_matrix(n, B), 2)
        cands = [phi.C for phi in found if max_stable(phi.C) < n - 2]
        if cands:
            C = rng.choice(cands)
            out.append({"A": rows_list(A), "B": rows_list(B), "C": [list(r) for r in C]})
    return out


def _scrambled_isos(rng, quotas, scale):
    """Scrambled isomorphisms, drawn until each (n, stable) quota is met."""
    out = []
    for n, (stable, unstable) in quotas.items():
        want = {True: _count(stable, scale), False: _count(unstable, scale)}
        while any(want.values()):
            A = sparse_matrix(rng, n, 2)
            src, tgt, C = scrambled_iso(rng, A, rng.randint(n, 2 * n))
            key = max_stable(C) >= n - 2
            if want[key]:
                want[key] -= 1
                out.append({"A": rows_list(src), "B": rows_list(tgt), "C": C})
    return out


def gen_certify(seed, lib, scale):
    rng = random.Random(f"certify-{seed}")
    inputs = _scrambled_isos(rng, CERTIFY_SCRAMBLED, scale)
    inputs += _organic_isos(rng, _count(CERTIFY_ORGANIC, scale), lib)
    rng.shuffle(inputs)
    return {"isos": inputs}


def _moves(obj):
    return [(side, idx, mv) for side in ("f_seq", "g_seq") for idx, mv in enumerate(obj[side]["moves"])]


def tamper(rng, obj, kind):
    """A copy of the certificate with one change of the given kind, or None.

    Each change is invalid for a reason independent of the verifier: the
    induced matrix of a switch or twist depends only on (kind, j, v), so
    dropping or altering a nontrivial move changes a composite that must
    equal phi_prime exactly, or breaks the chain; phi_prime is fixed by
    g o phi o f; and k_final is recomputed.
    """
    obj = json.loads(json.dumps(obj))
    # a twist by v = 0 induces the identity, so only the other moves count
    nontrivial = [m for m in _moves(obj) if m[2]["kind"] == "switch" or any(m[2]["v"])]
    if kind == "phi_prime":
        C = obj["phi_prime"]["C"]
        C[rng.randrange(len(C))][rng.randrange(len(C))] += 1
    elif kind == "k_final":
        obj["k_final"] += 1
    elif kind == "drop_move":
        if not nontrivial:
            return None
        side, idx, _ = rng.choice(nontrivial)
        del obj[side]["moves"][idx]
    elif kind == "move_j":
        if not nontrivial:
            return None
        rng.choice(nontrivial)[2]["j"] += rng.choice([-1, 1])
    elif kind == "twist_v":
        twists = [m[2] for m in _moves(obj) if m[2]["kind"] == "twist" and m[2]["j"] >= 2]
        if not twists:
            return None
        mv = rng.choice(twists)
        mv["v"][rng.randrange(mv["j"] - 1)] += 1
    return obj


def gen_verify(seed, lib, scale):
    """Certificates of generated isomorphisms, each with one tampered copy.

    Tamper kinds rotate so each is used about equally; a kind that does not
    apply (no twist to corrupt, say) falls through to the next one.
    """
    rng = random.Random(f"verify-{seed}")
    items = _scrambled_isos(rng, VERIFY_SCRAMBLED, scale)
    items += _organic_isos(rng, _count(VERIFY_ORGANIC, scale), lib)
    texts = []
    for idx, item in enumerate(items):
        n = len(item["A"])
        A, B = lib.make_bott_matrix(n, item["A"]), lib.make_bott_matrix(n, item["B"])
        obj = lib.serialize.certificate_to_obj(lib.stabilize_full(lib.make_iso(A, B, item["C"])))
        texts.append({"text": lib.serialize.dumps_canonical(obj), "valid": True})
        for shift in range(len(TAMPERS)):
            kind = TAMPERS[(idx + shift) % len(TAMPERS)]
            bad = tamper(rng, obj, kind)
            if bad is not None:
                texts.append({"text": lib.serialize.dumps_canonical(bad), "valid": False, "tamper": kind})
                break
    rng.shuffle(texts)
    return {"certs": texts}


def _zero(n):
    return [[0] * i for i in range(n)]


def gen_search(seed, lib, scale):
    """Move-related n = 3 pairs whose composite lies within the bound, and
    zero matrices.

    The automorphisms of the zero matrix at bound 1 are the 2^n n! signed
    permutations, a count known without the library.
    """
    rng = random.Random(f"search-{seed}")
    searches = []
    for nonzero, base in SEARCH_PAIRS.items():
        for _ in range(_count(base, scale)):
            while True:
                A = matrix_with_nonzeros(rng, 3, nonzero, 2)
                B, C = moved_partner(rng, A, rng.randint(1, 3))
                if max(abs(e) for r in C for e in r) <= SEARCH_BOUND:
                    break
            searches.append({"A": rows_list(A), "B": rows_list(B), "bound": SEARCH_BOUND, "known": C})
    for n, base in SEARCH_ZERO.items():
        signed_perms = 2**n
        for k in range(2, n + 1):
            signed_perms *= k
        for _ in range(_count(base, scale)):
            searches.append({"A": _zero(n), "B": _zero(n), "bound": 1, "count": signed_perms})
    rng.shuffle(searches)
    return {"searches": searches}


def gen_cli(seed, lib, scale):
    """Small isomorphism fixtures whose map lies within the CLI search bound."""
    rng = random.Random(f"cli-{seed}")
    fixtures = []
    while len(fixtures) < _count(CLI_FIXTURES, scale):
        n = rng.randint(3, 4)
        src, tgt, C = scrambled_iso(rng, sparse_matrix(rng, n, 2), rng.randint(2, 5))
        if max(abs(e) for r in C for e in r) <= CLI_SEARCH_BOUND:
            fixtures.append({"A": rows_list(src), "B": rows_list(tgt), "C": C, "bound": CLI_SEARCH_BOUND})
    return {"fixtures": fixtures}


GENERATORS = {"certify": gen_certify, "verify": gen_verify, "search": gen_search, "cli": gen_cli}


def generate(name, seed, lib, seconds):
    return GENERATORS[name](seed, lib, seconds / NOMINAL_SECONDS)


def fingerprint(inputs):
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
