"""Acceptance criteria, one test per criterion.

Each test prints one PASS line (visible with -s; the -v test names give the
same per-criterion report).  All checks are exact; the only tolerances are
the wall-clock caps stated alongside the criteria.
"""

import json
import random
import time

import pytest

import bottcert as bc
from bottcert.cli import main as cli_main
from bottcert.serialize import dumps_canonical
from helpers import (
    admissible_twists,
    block_map,
    dense_product,
    hirzebruch,
    identity,
    induced,
    moved_partner,
    rand_matrix,
    raw_iso_search,
    scrambled_iso,
    sparse_matrix,
    square_zero_bruteforce,
    zero_matrix,
)


# ---------------------------------------------------------------- criterion 1


def test_c1_square_zero_classification():
    # brute force at coefficient bound 6 equals the closed-form family
    # of integer multiples of the primitive square-zero generators
    rng = random.Random(101)
    bound = 6
    t0 = time.monotonic()
    for _ in range(200):
        A = rand_matrix(rng, rng.randint(1, 4), 3)
        brute = set(square_zero_bruteforce(A, bound))
        family = set()
        for _, _, prim in bc.square_zero_generators(A):
            c = 1
            while True:
                vec = tuple(c * t for t in prim)
                if any(abs(t) > bound for t in vec):
                    break
                family.add(vec)
                family.add(tuple(-t for t in vec))
                c += 1
        assert brute == family
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"CRITERION 1 PASS: square-zero classification, 200 matrices in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


@pytest.fixture(scope="module")
def hirzebruch_search():
    t0 = time.monotonic()
    table = {}
    for a in range(-4, 5):
        for b in range(-4, 5):
            table[(a, b)] = bc.search_isos(hirzebruch(a), hirzebruch(b), 6)
    return table, time.monotonic() - t0


def test_c2_hirzebruch_dichotomy(hirzebruch_search):
    table, elapsed = hirzebruch_search
    for (a, b), isos in table.items():
        assert bool(isos) == ((a - b) % 2 == 0), (a, b)
    assert elapsed < 60.0
    print(f"CRITERION 2 PASS: Hirzebruch dichotomy over [-4,4]^2 in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3


@pytest.fixture(scope="module")
def zero_autos():
    return {n: bc.search_isos(zero_matrix(n), zero_matrix(n), 1) for n in (1, 2, 3, 4)}


def test_c3_automorphism_counts(zero_autos):
    import math

    for n, isos in zero_autos.items():
        assert len(isos) == 2**n * math.factorial(n), n
    # independent raw enumeration finds nothing extra at bound 2
    for n in (1, 2, 3):
        raw = raw_iso_search(zero_matrix(n), zero_matrix(n), 2)
        assert len(raw) == 2**n * math.factorial(n), n
        assert set(raw) == {phi.C for phi in zero_autos[n]}
    print("CRITERION 3 PASS: automorphism counts 2^n n! at bound 1 (n<=4), raw-confirmed at bound 2 (n<=3)")


# ---------------------------------------------------------------- criterion 4


def test_c4_move_soundness():
    rng = random.Random(404)
    switches = twists = 0
    while switches + twists < 500:
        B = rand_matrix(rng, rng.randint(2, 6), 3)
        if rng.random() < 0.5:
            js = [j for j in range(1, B.n) if B.a(j + 1, j) == 0]
            if not js:
                continue
            j = rng.choice(js)
            mv = ("switch", j, None)
            after = bc.switch(B, j)
            bc.make_iso(B, after, induced(B.n, mv))
            assert bc.switch(after, j) == B
            assert dense_product(induced(B.n, mv), induced(after.n, mv)) == identity(B).C
            switches += 1
        else:
            j = rng.randint(1, B.n)
            vs = [v for v in admissible_twists(B, j, 2) if any(v)]
            if not vs:
                continue
            v = rng.choice(vs)
            mv, back = ("twist", j, v), ("twist", j, tuple(-t for t in v))
            after = bc.twist(B, j, v)
            bc.make_iso(B, after, induced(B.n, mv))
            assert bc.twist(after, j, back[2]) == B
            assert dense_product(induced(B.n, mv), induced(after.n, back)) == identity(B).C
            twists += 1
    print(f"CRITERION 4 PASS: 500 moves sound ({switches} switches, {twists} twists)")


# ---------------------------------------------------------------- criterion 5


@pytest.fixture(scope="module")
def organic_pairs():
    rng = random.Random(505)
    pairs = []
    while len(pairs) < 50:
        n = rng.randint(2, 4)
        A = sparse_matrix(rng, n, 3)
        B = moved_partner(rng, A, rng.randint(1, 3))
        pairs.append((A, B, bc.search_isos(A, B, 6)))
    return pairs


def _check_sigma_and_blocks(A, B, isos):
    if not isos:
        return 0
    bm_a, bm_b = block_map(A), block_map(B)
    n = A.n
    for phi in isos:
        sigma, _ = bc.extract_sigma_eps(phi)
        assert sorted(sigma) == list(range(1, n + 1))
        for i in range(1, n + 1):
            assert bm_a[i][0] == bm_b[sigma[i - 1]][0]  # levels preserved
            for j in range(i + 1, n + 1):
                assert (bm_a[i] == bm_a[j]) == (
                    bm_b[sigma[i - 1]] == bm_b[sigma[j - 1]]
                )
    return len(isos)


def test_c5_sigma_eps_and_blocks(hirzebruch_search, zero_autos, organic_pairs):
    checked = 0
    for (a, b), isos in hirzebruch_search[0].items():
        checked += _check_sigma_and_blocks(hirzebruch(a), hirzebruch(b), isos)
    for n, isos in zero_autos.items():
        checked += _check_sigma_and_blocks(zero_matrix(n), zero_matrix(n), isos)
    organic = 0
    for A, B, isos in organic_pairs:
        organic += _check_sigma_and_blocks(A, B, isos)
    assert organic > 0  # the move-related pairs really do carry isomorphisms
    checked += organic
    print(f"CRITERION 5 PASS: frame permutation/levels/blocks for {checked} isomorphisms")


# ---------------------------------------------------------------- criterion 6


@pytest.fixture(scope="module")
def synthetic_run():
    rng = random.Random(606)
    stats = {"runs": 0, "tripwires": 0, "nontrivial": 0, "elapsed": 0.0}
    t0 = time.monotonic()
    for _ in range(200):
        n = rng.randint(2, 5)
        A = sparse_matrix(rng, n, 2)
        phi = scrambled_iso(rng, A, rng.randint(2, 6))
        if bc.max_stable(phi) < n - 2:
            stats["nontrivial"] += 1
        try:
            cert = bc.stabilize_full(phi)
        except bc.TripwireError:
            stats["tripwires"] += 1
            continue
        assert cert.k_final >= n - 2
        assert bc.verify_certificate(cert).ok
        stats["runs"] += 1
    stats["elapsed"] = time.monotonic() - t0
    return stats


@pytest.fixture(scope="module")
def organic_run(hirzebruch_search, zero_autos, organic_pairs):
    stats = {"runs": 0, "tripwires": 0, "odd_branches": 0}
    jobs = []
    for (a, b), isos in hirzebruch_search[0].items():
        jobs.extend(isos)
    for isos in zero_autos.values():
        jobs.extend(isos)
    for A, B, isos in organic_pairs:
        jobs.extend(isos)
    for phi in jobs:
        try:
            cert, trace = bc.stabilize_full(phi, with_trace=True)
        except bc.TripwireError:
            stats["tripwires"] += 1
            continue
        assert cert.k_final >= phi.source.n - 2
        assert bc.verify_certificate(cert).ok
        stats["odd_branches"] += sum(side == "odd" for _, side, _ in trace.steps())
        stats["runs"] += 1
    return stats


def test_c6_stabilization(synthetic_run, organic_run):
    assert synthetic_run["runs"] + synthetic_run["tripwires"] == 200
    assert synthetic_run["tripwires"] == 0
    assert synthetic_run["elapsed"] < 300.0
    assert synthetic_run["nontrivial"] >= 30  # the suite genuinely destroys stability
    assert organic_run["runs"] > 0 and organic_run["tripwires"] == 0
    print(
        "CRITERION 6 PASS: 200 synthetic in "
        f"{synthetic_run['elapsed']:.1f}s ({synthetic_run['nontrivial']} nontrivial) "
        f"and {organic_run['runs']} organic certificates verified"
    )


# ---------------------------------------------------------------- criterion 7


def test_c7_proof_path_conformance(synthetic_run, organic_run):
    # tripwires cover parity of p, divisibility of the truncated row,
    # the forced zero entries, row preservation and the block claims;
    # a single firing anywhere in criterion 6 fails here
    assert synthetic_run["tripwires"] == 0
    assert organic_run["tripwires"] == 0
    assert organic_run["odd_branches"] > 0  # the deep branch was actually used
    print(
        "CRITERION 7 PASS: zero tripwire firings across "
        f"{synthetic_run['runs'] + organic_run['runs']} certified runs "
        f"({organic_run['odd_branches']} odd branches exercised)"
    )


# ---------------------------------------------------------------- criterion 8


def test_c8_cli_determinism(tmp_path, capsys):
    fixtures = {
        "h3.json": {"n": 3, "rows": [[], [1], [1, 0]]},
        "a.json": {"n": 4, "rows": [[], [1], [0, 2], [1, 1, 0]]},
        "f0.json": {"n": 2, "rows": [[], [0]]},
        "f2.json": {"n": 2, "rows": [[], [2]]},
        "c.json": {"C": [[1, 0], [-1, 1]]},
    }
    paths = {}
    for name, payload in fixtures.items():
        p = tmp_path / name
        p.write_text(dumps_canonical(payload), encoding="utf-8")
        paths[name] = str(p)
    commands = [
        ["ring", paths["h3.json"]],
        ["sqzero", paths["a.json"]],
        ["decompose", paths["a.json"]],
        ["iso-check", paths["f0.json"], paths["f2.json"], paths["c.json"]],
        ["iso-search", paths["f0.json"], paths["f2.json"], "--bound", "3"],
        ["stabilize", paths["f0.json"], paths["f2.json"], paths["c.json"]],
    ]
    for argv in commands:
        outs = set()
        for _ in range(2):
            assert cli_main(list(argv)) == 0
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1, argv
        json.loads(outs.pop())  # emitted JSON re-parses
    print("CRITERION 8 PASS: byte-identical CLI output across repeated runs")
