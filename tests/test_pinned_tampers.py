"""Verdicts of the JSON certificate reader on tampered certificates, pinned by digest.

The 30 certificates of ``test_pinned_outputs.seeded_certificates``, tampered
at every move: its ``j`` moved down and up by one, each entry of a twist's
``v`` raised by one, and the move swapped with its successor; and with
``k_final`` moved down and up by one.  The digest was taken while
``verify_certificate_obj`` still replayed every parsed certificate a second
time, so the single-pass reader must reproduce every verdict and diagnostic.

Those certificates hold 1 twist in 117 moves, so ``TWIST_TAMPER_DIGEST``
pins the same tampers over the 64 certificates of ``odd_twist_isos``, which
hold 48 twists in 160 moves.  It was taken before the CLI and the reader
shared one JSON parser.
"""

import copy
import json

import bottcert as bc
from bottcert.serialize import certificate_to_obj, verify_certificate_obj
from helpers import digest, odd_twist_isos
from test_pinned_outputs import _verdict, seeded_certificates

TAMPER_DIGEST = "436f40286f947903804d253fa8226668a54f1396d1b99656f98f50330a30f4b8"
TWIST_TAMPER_DIGEST = "66a3f93dd76abad508ab9a8dee2d3678107e96befa5c55067819744ad4533400"


def tampers(obj):
    """(label, tampered copy) for every move position of both sequences."""
    for side in ("f_seq", "g_seq"):
        moves = obj[side]["moves"]
        for i, mv in enumerate(moves):
            for dj in (-1, 1):
                bad = copy.deepcopy(obj)
                bad[side]["moves"][i]["j"] += dj
                yield f"{side}[{i}].j{dj:+d}", bad
            for t in range(len(mv.get("v", ()))):
                bad = copy.deepcopy(obj)
                bad[side]["moves"][i]["v"][t] += 1
                yield f"{side}[{i}].v[{t}]+1", bad
            if i + 1 < len(moves):
                bad = copy.deepcopy(obj)
                seq = bad[side]["moves"]
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                yield f"{side}[{i}]<->[{i + 1}]", bad
    for dk in (-1, 1):
        bad = copy.deepcopy(obj)
        bad["k_final"] += dk
        yield f"k_final{dk:+d}", bad


def tamper_records(certs):
    """Each tamper of each certificate, numbered in order, with the reader's verdict."""
    for k, cert in enumerate(certs):
        obj = json.loads(json.dumps(certificate_to_obj(cert)))
        for label, bad in tampers(obj):
            yield f"{k} {label} {_verdict(verify_certificate_obj(bad))}"


def test_tampered_verdicts_pinned():
    assert digest(tamper_records(seeded_certificates())) == TAMPER_DIGEST


def test_tampered_twist_verdicts_pinned():
    certs = [bc.stabilize_full(phi) for phi in odd_twist_isos()]
    moves = [mv for cert in certs for mv in (*cert.f_seq.moves, *cert.g_seq.moves)]
    assert (len(certs), len(moves), sum(kind == "twist" for kind, _, _ in moves)) == (64, 160, 48)
    assert digest(tamper_records(certs)) == TWIST_TAMPER_DIGEST
