"""Library outputs pinned by digest: certificates, verdicts, search results.

The digests were taken before the integer kernels (``compose``,
``int_inverse``, ``int_det``, ``switch``) were rewritten for sparsity, so
any change to the integers those kernels produce shows up here, not only in
the CLI fixtures of ``test_cli.test_pinned_stdout_bytes``.
"""

import copy
import hashlib
import json
import random

import bottcert as bc
from bottcert.serialize import certificate_to_obj, dumps_canonical, verify_certificate_obj
from helpers import moved_partner, scrambled_iso, sparse_matrix

CERT_DIGEST = "ca2d377229cddd618f0759aa5d30aee1dea1013f0c8ca7f97e6910d70e149123"
SEARCH_DIGEST = "e2cce42baaf53b50f7222f4809b8b1f68ecfade1347f61ea048e29f401ac0a3d"


def _verdict(result):
    return f"{result.ok} {result.diagnostic}"


def certificate_records():
    """Certificate text plus verdicts on it and on two tampered copies, n = 4..10."""
    rng = random.Random(4242)
    for k in range(30):
        n = 4 + k % 7
        A = sparse_matrix(rng, n, 2)
        phi = scrambled_iso(rng, A, rng.randint(3, 8), twist_mag=1)
        cert = bc.stabilize_full(phi)
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


def digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_certificates_and_verdicts_pinned():
    assert digest(certificate_records()) == CERT_DIGEST


def test_search_results_pinned():
    assert digest(search_records()) == SEARCH_DIGEST
