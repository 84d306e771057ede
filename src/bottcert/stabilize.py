"""Certified stabilization of graded ring isomorphisms.

Given a validated isomorphism phi between two Bott rings, the routines here
produce realizable move sequences f (on the source side) and g (on the
target side) such that g o phi o f preserves the filtration up to the top
two stages, together with a self-contained certificate that replays every
move and recomputes every claim.

The engine is a height-reduction step: for a k-stable phi whose image of
x_{k+1} has height l > k+1, the target matrix admits moves (depending on
the parity of p = b_{l,l-1}) after which the image lands in F_{l-1}.  The
identities this relies on are mathematically forced for valid isomorphisms,
so each one is recomputed at runtime and any failure raises a tripwire
error rather than producing a wrong certificate.
"""

from __future__ import annotations

from .errors import (
    ContractViolation,
    DecompositionInconsistent,
    NonTermination,
    OddAtBoundary,
    ProofPathViolation,
    RangeError,
)
from .iso import GradedIso, compose, invert, make_iso, max_stable
from .moves import Move, MoveSeq, ReplayResult, invert_seq, replay, switch, twist
from .ring import BottMatrix, Class2, product_is_zero
from .structure import decompose_tower, same_block


class XkDecomposition:
    """Shape of the image of x_{k+1}: eps(2y_l - trunc(beta_l)) + w, w in F_k; e = 2 eps."""
    __slots__ = ("ell", "e", "w")

    def __init__(self, ell: int, e: int, w: Class2):
        self.ell, self.e, self.w = ell, e, w


def decompose_xk(phi: GradedIso, k: int) -> XkDecomposition | None:
    """Decompose the image of x_{k+1} for a k-stable isomorphism.

    Returns None when the image already lies in F_{k+1} (nothing to do);
    otherwise the height l, the integer e = 2 eps (the coefficient at y_l)
    and the F_k part w, after verifying that coefficients at indices
    strictly between k and l equal -eps * b_{l,j}.  A mismatch is
    impossible for validated input and raises DecompositionInconsistent.
    """
    n = phi.source.n
    if not 0 <= k < n:
        raise RangeError(f"stability index {k} outside 0..{n - 1}")
    if not phi.is_k_stable(k):
        raise ValueError(f"isomorphism is not {k}-stable")
    img = phi.row(k + 1)
    ell = img.height()
    if ell <= k:
        raise DecompositionInconsistent("image of x_{k+1} lies inside F_k")
    if ell == k + 1:
        return None
    B = phi.target
    top = img[ell]
    for j in range(k + 1, ell):
        if 2 * img[j] != -top * B.a(ell, j):
            raise DecompositionInconsistent(
                f"coefficient at y_{j} is {img[j]}, expected -eps*b[{ell},{j}]"
            )
    w = img.truncated_head(k)
    bar_ell = B.alpha(ell).truncated_tail(k)
    frame2 = Class2.basis(B, ell).scale(2) - bar_ell
    if w.scale(2) + frame2.scale(top) != img.scale(2):
        raise DecompositionInconsistent("decomposition does not reproduce the image")
    return XkDecomposition(ell, top, w)


class KeyStepTrace:
    """Record of one height-reduction step, for audit and conformance tests."""
    __slots__ = ("k", "ell", "p", "case", "e", "w", "u", "moves")

    def __init__(self, k: int, ell: int, p: int, case: str, e: int, w: Class2, u: Class2 | None,
                 moves: MoveSeq):
        self.k, self.ell, self.p, self.case = k, ell, p, case  # "zero" | "even" | "odd"
        self.e, self.w, self.u, self.moves = e, w, u, moves  # e = 2 eps


class _Budget:
    """Counts height-reduction steps against an optional hard cap."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise NonTermination(f"exceeded the cap of {self.limit} height-reduction steps")


def _key_step(phi: GradedIso, k: int, dec: XkDecomposition, budget: _Budget):
    """Height-reduction step for ``dec``, the decomposition of phi at k."""
    budget.spend()
    ell, e, w = dec.ell, dec.e, dec.w
    B = phi.target
    p = B.a(ell, ell - 1)
    moves: list[Move] = []
    cur = B
    u: Class2 | None = None
    if p == 0:
        case = "zero"
        # the image has no y_{l-1} term, so exchanging l-1 and l drops the height
        mv = switch(cur, ell - 1)
        moves.append(mv)
        cur = mv.after
    else:
        head = B.alpha(ell).truncated_head(k)  # beta_l minus its truncation
        bar_ell = B.alpha(ell).truncated_tail(k)
        phi_alpha = phi.apply2(phi.source.alpha(k + 1))
        # forced identity: 2eps*(beta_l - trunc beta_l) = phi(alpha_{k+1}) - 2w
        if head.scale(e) != phi_alpha - w.scale(2):
            raise ContractViolation("F_k part of beta_l does not match phi(alpha_{k+1})")
        u = head.scale(2)
        if not product_is_zero(B, bar_ell.coeffs, (bar_ell + u).coeffs):
            raise ContractViolation("trunc(beta_l) * (trunc(beta_l) + u) != 0")
        bar_prev = B.alpha(ell - 1).truncated_tail(k)
        # forced identity: 2 trunc(beta_l) = p (2 y_{l-1} - trunc(beta_{l-1}))
        if bar_ell.scale(2) != (Class2.basis(B, ell - 1).scale(2) - bar_prev).scale(p):
            raise ContractViolation("trunc(beta_l) is not p*(y_{l-1} - trunc(beta_{l-1})/2)")
        if p % 2 == 0:
            case = "even"
            v = Class2.basis(B, ell - 1).scale(p // 2)
            if not product_is_zero(B, v.coeffs, (B.alpha(ell) - v).coeffs):
                raise ContractViolation("v(beta_l - v) != 0 with v = (p/2) y_{l-1}")
            mv = twist(cur, ell, v)
            moves.append(mv)
            cur = mv.after
            if cur.a(ell, ell - 1) != 0:
                raise ContractViolation("twist did not clear the entry (l, l-1)")
            mv = switch(cur, ell - 1)
            moves.append(mv)
            cur = mv.after
        else:
            case = "odd"
            if ell <= k + 2:
                raise OddAtBoundary(f"p={p} odd requires height > {k + 2}, got {ell}")
            if any(t % 2 for t in bar_prev.coeffs):
                raise ContractViolation("trunc(beta_{l-1}) is not divisible by 2")
            v = Class2(B, [t // 2 for t in bar_prev.coeffs])
            if not product_is_zero(B, v.coeffs, (B.alpha(ell - 1) - v).coeffs):
                raise ContractViolation("v(beta_{l-1} - v) != 0 with v = trunc(beta_{l-1})/2")
            mv = twist(cur, ell - 1, v)
            moves.append(mv)
            cur = mv.after
            if cur.a(ell, ell - 2) != 0:
                raise ContractViolation("entry (l, l-2) must vanish after the odd twist")
            for col in range(k + 1, ell - 1):
                if cur.a(ell, col) != 0:
                    raise ContractViolation(f"entry (l, {col}) must vanish after the odd twist")
                if cur.a(ell - 1, col) != 0:
                    raise ContractViolation(f"entry (l-1, {col}) must vanish after the odd twist")
            mv = switch(cur, ell - 2)
            moves.append(mv)
            cur = mv.after
            if cur.a(ell, ell - 1) != 0:
                raise ContractViolation("entry (l, l-1) must vanish before the final switch")
            mv = switch(cur, ell - 1)
            moves.append(mv)
            cur = mv.after
    keep_below = ell - 1 if case in ("zero", "even") else ell - 2
    for i in range(1, keep_below):
        if cur.rows[i - 1] != B.rows[i - 1]:
            raise ContractViolation(f"row {i} changed; rows below {keep_below} must be kept")
    seq = MoveSeq.build(B, moves)
    phi_new = compose(seq.composite, phi)
    if not phi_new.is_k_stable(k):
        raise ContractViolation("height reduction broke k-stability")
    if phi_new.row(k + 1).height() >= ell:
        raise ContractViolation("height of the tracked image did not decrease")
    trace = KeyStepTrace(k=k, ell=ell, p=p, case=case, e=e, w=w, u=u, moves=seq)
    return seq, phi_new, trace


def key_step(phi: GradedIso, k: int):
    """One height-reduction step; returns (target moves, new iso, trace).

    Requires phi k-stable with the image of x_{k+1} of height l > k+1, and
    l > k+2 when the subdiagonal entry p = b_{l,l-1} is odd (otherwise
    OddAtBoundary is raised and the caller must take the two-sided route).
    """
    dec = decompose_xk(phi, k)
    if dec is None:
        raise ValueError("image of x_{k+1} is already in F_{k+1}")
    return _key_step(phi, k, dec, _Budget(None))


class OddBranchTrace:
    """Source-side detour taken when the entry (k+2, k+1) is odd."""
    __slots__ = ("p", "source_steps", "final_entry", "final_step")

    def __init__(self, p: int, source_steps: tuple[KeyStepTrace, ...], final_entry: int | None,
                 final_step: KeyStepTrace | None):
        self.p, self.source_steps = p, source_steps
        self.final_entry, self.final_step = final_entry, final_step


class RaiseTrace:
    __slots__ = ("k", "phase1", "odd")

    def __init__(self, k: int, phase1: tuple[KeyStepTrace, ...], odd: OddBranchTrace | None):
        self.k, self.phase1, self.odd = k, phase1, odd


def _odd_branch(phi: GradedIso, k: int, p: int, budget: _Budget):
    """Reduce on the source side via the inverse, keeping row k+1 fixed.

    Entered when the image of x_{k+1} has height exactly k+2 and the entry
    (k+2, k+1) of the target matrix is odd.  Block theory then guarantees
    k+1 and k+2 share a block on the target side, the inverse images can be
    pushed into F_{k+3} and F_{k+1} without touching row k+1 of the source
    matrix, and a leftover height of k+3 comes with an even entry
    (k+3, k+2).  Each of these facts is recomputed and enforced.
    """
    if not same_block(phi.target, k + 1, k + 2):
        raise ProofPathViolation("k+1 and k+2 must share a block on the target side")
    psi = invert(phi)  # maps the target ring back to the source ring; k-stable
    original_row = psi.target.rows[k]  # row k+1 of the source matrix
    src_moves: list[Move] = []
    steps: list[KeyStepTrace] = []
    last: int | None = None
    while True:
        dec = decompose_xk(psi, k)
        if dec is None:
            raise ProofPathViolation("inverse image of y_{k+1} fell below height k+2")
        if dec.ell <= k + 3:
            break
        seq, psi, tr = _key_step(psi, k, dec, budget)
        if last is not None and tr.ell >= last:
            raise ProofPathViolation("tracked height must strictly decrease")
        last = tr.ell
        steps.append(tr)
        src_moves.extend(seq.moves)
        if psi.target.rows[k] != original_row:
            raise ProofPathViolation("row k+1 of the source matrix changed")
    final_entry = None
    final_tr = None
    if dec.ell == k + 3:
        A_cur = psi.target
        if not same_block(A_cur, k + 1, k + 3):
            raise ProofPathViolation("k+1 and k+3 must share a block on the source side")
        final_entry = A_cur.a(k + 3, k + 2)
        if final_entry % 2 != 0:
            raise ProofPathViolation("entry (k+3, k+2) must be even on the source side")
        seq, psi, final_tr = _key_step(psi, k, dec, budget)
        src_moves.extend(seq.moves)
        if psi.target.rows[k] != original_row:
            raise ProofPathViolation("row k+1 of the source matrix changed")
    if psi.row(k + 1).height() > k + 2:
        raise ProofPathViolation("inverse image of y_{k+1} must land in F_{k+2}")
    # row k+2 of the inverse follows: 2 psi(y_{k+2}) is eps'(2x_{k+1} - alpha_{k+1})
    # plus p psi(y_{k+1}) plus an F_k class, all of height <= k+2
    if psi.row(k + 2).height() > k + 2:
        raise ProofPathViolation("inverse image of y_{k+2} must land in F_{k+2}")
    phi_new = invert(psi)
    return phi_new, src_moves, OddBranchTrace(p, tuple(steps), final_entry, final_tr)


def _raise_fwd(phi: GradedIso, k: int, budget: _Budget):
    """Raise stability by at least one; returns forward move lists and trace."""
    n = phi.source.n
    if not 0 <= k < n:
        raise RangeError(f"stability index {k} outside 0..{n - 1}")
    if not phi.is_k_stable(k):
        raise ValueError(f"isomorphism is not {k}-stable")
    phase1: list[KeyStepTrace] = []
    tgt_moves: list[Move] = []
    src_moves: list[Move] = []
    odd: OddBranchTrace | None = None
    cur = phi
    last: int | None = None
    while (dec := decompose_xk(cur, k)) is not None and dec.ell > k + 2:
        seq, cur, tr = _key_step(cur, k, dec, budget)
        if last is not None and tr.ell >= last:
            raise ProofPathViolation("tracked height must strictly decrease")
        last = tr.ell
        phase1.append(tr)
        tgt_moves.extend(seq.moves)
    if dec is not None:  # height is exactly k+2
        p = cur.target.a(k + 2, k + 1)
        if p % 2 == 0:
            seq, cur, tr = _key_step(cur, k, dec, budget)
            phase1.append(tr)
            tgt_moves.extend(seq.moves)
        else:
            cur, new_src, odd = _odd_branch(cur, k, p, budget)
            src_moves.extend(new_src)
    if not (cur.is_k_stable(k + 1) or cur.is_k_stable(k + 2)):
        raise ProofPathViolation("result is neither (k+1)- nor (k+2)-stable")
    return src_moves, tgt_moves, cur, RaiseTrace(k, tuple(phase1), odd)


def raise_stability(phi: GradedIso, k: int):
    """Make phi (k+1)- or (k+2)-stable via realizable moves on both sides.

    Returns (f, g, phi') with f a move sequence from the new source matrix
    back to phi's source, g a move sequence from phi's target forward, and
    phi' = g o phi o f.  phi must be k-stable; k is normally max_stable(phi).
    """
    src_moves, tgt_moves, cur, _ = _raise_fwd(phi, k, _Budget(None))
    f_seq = invert_seq(MoveSeq.build(phi.source, src_moves))
    g_seq = MoveSeq.build(phi.target, tgt_moves)
    return f_seq, g_seq, cur


class StabilizeTrace:
    __slots__ = ("normalization_source", "normalization_target", "raises")

    def __init__(self, normalization_source: MoveSeq, normalization_target: MoveSeq,
                 raises: tuple[RaiseTrace, ...]):
        self.normalization_source, self.normalization_target = normalization_source, normalization_target
        self.raises = raises


class StabilizationCertificate:
    """Self-contained, replayable witness of a stabilization run.

    Invariants: f_seq runs from the new source matrix to A, g_seq from B to
    the new target matrix, phi_prime equals g o phi o f exactly, both
    sequences replay, and k_final = max_stable(phi_prime) >= n - 2.
    """
    __slots__ = ("A", "B", "phi", "f_seq", "g_seq", "phi_prime", "k_final")

    def __init__(self, A: BottMatrix, B: BottMatrix, phi: GradedIso, f_seq: MoveSeq, g_seq: MoveSeq,
                 phi_prime: GradedIso, k_final: int):
        self.A, self.B, self.phi = A, B, phi
        self.f_seq, self.g_seq, self.phi_prime, self.k_final = f_seq, g_seq, phi_prime, k_final


def stabilize_full(phi: GradedIso, with_trace: bool = False):
    """Iterate stability raising until the top two stages are preserved.

    Both matrices are first brought to stagewise order by switches (those
    moves are part of the certificate); afterwards each round strictly
    increases max_stable, and the total number of height-reduction steps is
    capped at n(n+2), beyond which NonTermination is raised.
    """
    A, B = phi.source, phi.target
    n = A.n
    budget = _Budget(n * (n + 2))
    tower_a = decompose_tower(A)
    tower_b = decompose_tower(B)
    norm_src = MoveSeq.build(A, tower_a.moves_applied)
    norm_tgt = MoveSeq.build(B, tower_b.moves_applied)
    cur = compose(norm_tgt.composite, compose(phi, invert(norm_src.composite)))
    src_fwd: list[Move] = list(norm_src.moves)
    tgt_fwd: list[Move] = list(norm_tgt.moves)
    raises: list[RaiseTrace] = []
    k = max_stable(cur)
    while k < n - 2:
        new_src, new_tgt, cur, rt = _raise_fwd(cur, k, budget)
        src_fwd.extend(new_src)
        tgt_fwd.extend(new_tgt)
        raises.append(rt)
        k_next = max_stable(cur)
        if k_next <= k:
            raise ProofPathViolation("max_stable did not increase across a round")
        k = k_next
    f_seq = invert_seq(MoveSeq.build(A, src_fwd))
    g_seq = MoveSeq.build(B, tgt_fwd)
    check = compose(g_seq.composite, compose(phi, f_seq.composite))
    if check != cur:
        raise ContractViolation("certificate composition equation failed")
    cert = StabilizationCertificate(
        A=A, B=B, phi=phi, f_seq=f_seq, g_seq=g_seq, phi_prime=cur, k_final=k
    )
    if with_trace:
        return cert, StabilizeTrace(norm_src, norm_tgt, tuple(raises))
    return cert


def check_claims(cert: StabilizationCertificate) -> ReplayResult:
    """Check the claims tying a certificate's validated moves and maps together.

    The sequences and maps connect A, B and the moved matrices, phi_prime is
    g o phi o f exactly, and k_final = max_stable(phi_prime) >= n - 2.
    """
    if cert.f_seq.end != cert.A:
        return ReplayResult(False, "source sequence does not end at A")
    if cert.g_seq.start != cert.B:
        return ReplayResult(False, "target sequence does not start at B")
    if cert.phi.source != cert.A or cert.phi.target != cert.B:
        return ReplayResult(False, "phi is not a map from A to B")
    if cert.phi_prime.source != cert.f_seq.start or cert.phi_prime.target != cert.g_seq.end:
        return ReplayResult(False, "phi_prime does not connect the moved matrices")
    comp = compose(cert.g_seq.composite, compose(cert.phi, cert.f_seq.composite))
    if comp.C != cert.phi_prime.C:
        return ReplayResult(False, "phi_prime is not g o phi o f")
    k = max_stable(cert.phi_prime)
    if k != cert.k_final:
        return ReplayResult(False, f"claimed k_final {cert.k_final}, recomputed {k}")
    if k < cert.A.n - 2:
        return ReplayResult(False, f"k_final {k} below n-2 = {cert.A.n - 2}")
    return ReplayResult(True, None)


def verify_certificate(cert: StabilizationCertificate) -> ReplayResult:
    """Re-verify an in-memory certificate from its raw data only.

    Replays both move sequences, revalidates both isomorphisms, then
    ``check_claims``.  Nothing from the construction is trusted.  A
    certificate read from JSON needs only ``check_claims``: reading it
    built and validated each move and map.
    """
    try:
        r = replay(cert.f_seq)
        if not r:
            return ReplayResult(False, f"source sequence: {r.diagnostic}")
        r = replay(cert.g_seq)
        if not r:
            return ReplayResult(False, f"target sequence: {r.diagnostic}")
        phi = make_iso(cert.phi.source, cert.phi.target, cert.phi.C)
        phi_prime = make_iso(cert.phi_prime.source, cert.phi_prime.target, cert.phi_prime.C)
        fresh = StabilizationCertificate(cert.A, cert.B, phi, cert.f_seq, cert.g_seq, phi_prime, cert.k_final)
        return check_claims(fresh)
    except Exception as exc:
        return ReplayResult(False, f"certificate data invalid: {exc}")
