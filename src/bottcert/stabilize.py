"""Certified stabilization of graded ring isomorphisms.

Given a validated isomorphism phi between two Bott rings, the routines here
produce realizable move sequences f (on the source side) and g (on the
target side) such that g o phi o f preserves the filtration up to the top
two stages, together with a self-contained certificate: each of its moves
is rebuilt from its parameters and every claim is recomputed.

The engine is a height-reduction step: for a k-stable phi whose image of
x_{k+1} has height l > k+1, the target matrix admits moves (depending on
the parity of p = b_{l,l-1}) after which the image lands in F_{l-1}.  The
identities this relies on are mathematically forced for valid isomorphisms;
each one that no earlier check implies is recomputed at runtime, and a
failure raises a tripwire error rather than producing a wrong certificate.
A move's own precondition is checked once, by ``switch`` or ``twist`` as
the step builds it; a move that fails to build there is a tripwire too.
"""

from __future__ import annotations

from .errors import (
    BottError,
    ContractViolation,
    DecompositionInconsistent,
    ProofPathViolation,
    RangeError,
)
from .iso import GradedIso, invert, make_iso, max_stable
from .moves import Move, MoveSeq, _before, _then, invert_seq, rebuild, switch, twist
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
    strictly between k and l equal -eps * b_{l,j}, which makes the image
    w + eps(2y_l - trunc(beta_l)).  A mismatch raises DecompositionInconsistent.
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
    return XkDecomposition(ell, top, img.truncated_head(k))


class KeyStepTrace:
    """Record of one height-reduction step, for audit and conformance tests."""
    __slots__ = ("k", "ell", "p", "case", "e", "w", "u", "moves")

    def __init__(self, k: int, ell: int, p: int, case: str, e: int, w: Class2, u: Class2 | None,
                 moves: tuple[Move, ...]):
        self.k, self.ell, self.p, self.case = k, ell, p, case  # "zero" | "even" | "odd"
        self.e, self.w, self.u = e, w, u  # e = 2 eps
        self.moves = moves  # one to three, the first from the target of the map reduced


def _key_step(phi: GradedIso, k: int, dec: XkDecomposition):
    """Height-reduction step for ``dec``, the decomposition of phi at k; returns (phi', trace)."""
    ell, e, w = dec.ell, dec.e, dec.w
    B = phi.target
    p = B.a(ell, ell - 1)
    moves: list[Move] = []
    C = [list(row) for row in phi.C]  # phi, then the moves so far as column operations
    cur = B

    def play(build, *args) -> None:
        """Build a move from the current matrix and fold it onto C; a failed build is a bug."""
        nonlocal cur
        try:
            mv = build(cur, *args)
        except BottError as exc:
            raise ContractViolation(f"key step at l={ell} could not build a move: {exc}") from exc
        moves.append(mv)
        _then(C, mv)
        cur = mv.after

    u: Class2 | None = None
    if p == 0:
        case = "zero"
        # the image has no y_{l-1} term, so exchanging l-1 and l drops the height
        play(switch, ell - 1)
    else:
        head = B.alpha(ell).truncated_head(k)  # beta_l minus its truncation
        bar_ell = B.alpha(ell).truncated_tail(k)
        phi_alpha = phi.apply2(phi.source.alpha(k + 1))
        # forced identity: 2eps*(beta_l - trunc beta_l) = phi(alpha_{k+1}) - 2w
        if head.scale(e) != phi_alpha - w.scale(2):
            raise ContractViolation("F_k part of beta_l does not match phi(alpha_{k+1})")
        u = head.scale(2)
        # for k < j < l-1, the coefficient of y_j y_{l-1} in this product is
        # p(2 trunc(beta_l)_j + p b_{l-1,j}): with p != 0 it forces the identity
        # 2 trunc(beta_l) = p (2 y_{l-1} - trunc(beta_{l-1}))
        if not product_is_zero(B, bar_ell.coeffs, (bar_ell + u).coeffs):
            raise ContractViolation("trunc(beta_l) * (trunc(beta_l) + u) != 0")
        if p % 2 == 0:
            case = "even"
            # twist checks v(beta_l - v) = 0, and the switch that b_{l,l-1} is cleared
            play(twist, ell, Class2.basis(B, ell - 1).scale(p // 2))
            play(switch, ell - 1)
        else:
            case = "odd"
            # p trunc(beta_{l-1}) is even by that identity, so with p odd it halves
            # exactly; twist checks v(beta_{l-1} - v) = 0.  No caller steps at l = k+2
            # with p odd (_descend steps at l > k+2, _raise_fwd at k+2 for even p only),
            # so the loop reaches column l-2
            bar_prev = B.alpha(ell - 1).truncated_tail(k)
            play(twist, ell - 1, Class2(B, [t // 2 for t in bar_prev.coeffs]))
            for col in range(k + 1, ell - 1):
                if cur.a(ell, col) != 0:
                    raise ContractViolation(f"entry (l, {col}) must vanish after the odd twist")
                if cur.a(ell - 1, col) != 0:
                    raise ContractViolation(f"entry (l-1, {col}) must vanish after the odd twist")
            play(switch, ell - 2)
            play(switch, ell - 1)
    keep_below = ell - 1 if case in ("zero", "even") else ell - 2
    for i in range(1, keep_below):
        if cur.rows[i - 1] != B.rows[i - 1]:
            raise ContractViolation(f"row {i} changed; rows below {keep_below} must be kept")
    phi_new = GradedIso(phi.source, cur, tuple(map(tuple, C)))
    if not phi_new.is_k_stable(k):
        raise ContractViolation("height reduction broke k-stability")
    if phi_new.row(k + 1).height() >= ell:
        raise ContractViolation("height of the tracked image did not decrease")
    return phi_new, KeyStepTrace(k=k, ell=ell, p=p, case=case, e=e, w=w, u=u, moves=tuple(moves))


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


def _descend(phi: GradedIso, k: int, floor: int):
    """Key steps while the tracked height is above ``floor``; returns (phi', steps, dec).

    dec is the decomposition of phi' at k, None when its height is k+1.
    """
    steps: list[KeyStepTrace] = []
    while (dec := decompose_xk(phi, k)) is not None and dec.ell > floor:
        phi, tr = _key_step(phi, k, dec)
        steps.append(tr)
    return phi, steps, dec


def _odd_branch(phi: GradedIso, k: int, p: int):
    """Reduce on the source side via the inverse, keeping row k+1 fixed.

    Entered when the image of x_{k+1} has height exactly k+2 and the entry
    (k+2, k+1) of the target matrix is odd.  Block theory then guarantees
    k+1 and k+2 share a block on the target side, the inverse images can be
    pushed into F_{k+3} and F_{k+1} without touching row k+1 of the source
    matrix, and a leftover height of k+3 comes with an even entry
    (k+3, k+2).  The block and parity facts are recomputed.  The inverse
    image of y_{k+1} then lies in F_{k+2} with no check of its own:
    ``_descend`` stops at height k+2 or k+3, and at k+3 the final
    ``_key_step`` checks that the height fell.  Row k+1 of the source matrix
    is kept by ``_key_step``, as each step here has l >= k+4 or is an even
    step at l = k+3.
    """
    if not same_block(decompose_tower(phi.target), k + 1, k + 2):
        raise ProofPathViolation("k+1 and k+2 must share a block on the target side")
    # the inverse maps the target ring back to the source ring and is k-stable
    psi, steps, dec = _descend(invert(phi), k, k + 3)
    if dec is None:
        raise ProofPathViolation("inverse image of y_{k+1} fell below height k+2")
    final_entry = None
    final_tr = None
    if dec.ell == k + 3:
        A_cur = psi.target
        if not same_block(decompose_tower(A_cur), k + 1, k + 3):
            raise ProofPathViolation("k+1 and k+3 must share a block on the source side")
        final_entry = A_cur.a(k + 3, k + 2)
        if final_entry % 2 != 0:
            raise ProofPathViolation("entry (k+3, k+2) must be even on the source side")
        psi, final_tr = _key_step(psi, k, dec)
    # row k+2 of the inverse follows: 2 psi(y_{k+2}) is eps'(2x_{k+1} - alpha_{k+1})
    # plus p psi(y_{k+1}) plus an F_k class, all of height <= k+2
    if psi.row(k + 2).height() > k + 2:
        raise ProofPathViolation("inverse image of y_{k+2} must land in F_{k+2}")
    return invert(psi), OddBranchTrace(p, tuple(steps), final_entry, final_tr)


def _raise_fwd(phi: GradedIso, k: int):
    """Raise stability by at least one; returns (phi', trace), whose steps hold the moves.

    The first ``decompose_xk`` checks that k is in range and phi is k-stable.
    """
    odd: OddBranchTrace | None = None
    phi, phase1, dec = _descend(phi, k, k + 2)
    if dec is not None:  # height is exactly k+2
        p = phi.target.a(k + 2, k + 1)
        if p % 2 == 0:
            phi, tr = _key_step(phi, k, dec)
            phase1.append(tr)
        else:
            phi, odd = _odd_branch(phi, k, p)
    if not (phi.is_k_stable(k + 1) or phi.is_k_stable(k + 2)):
        raise ProofPathViolation("result is neither (k+1)- nor (k+2)-stable")
    return phi, RaiseTrace(k, tuple(phase1), odd)


class StabilizeTrace:
    __slots__ = ("raises",)

    def __init__(self, raises: tuple[RaiseTrace, ...]):
        self.raises = raises


class StabilizationCertificate:
    """Self-contained, replayable witness of a stabilization run.

    Invariants: f_seq runs from the new source matrix to A, g_seq from B to
    the new target matrix, phi_prime equals g o phi o f exactly, both
    sequences rebuild from their parameters, and
    k_final = max_stable(phi_prime) >= n - 2.
    """
    __slots__ = ("A", "B", "phi", "f_seq", "g_seq", "phi_prime", "k_final")

    def __init__(self, A: BottMatrix, B: BottMatrix, phi: GradedIso, f_seq: MoveSeq, g_seq: MoveSeq,
                 phi_prime: GradedIso, k_final: int):
        self.A, self.B, self.phi = A, B, phi
        self.f_seq, self.g_seq, self.phi_prime, self.k_final = f_seq, g_seq, phi_prime, k_final


def stabilize_full(phi: GradedIso, with_trace: bool = False):
    """Iterate stability raising until the top two stages are preserved.

    Both matrices are first brought to stagewise order by switches (those
    moves are part of the certificate); switch maps carry no signs, so the
    normalized map is phi relabelled by the towers' ``perm``.  Each key
    step lowers the height of the tracked image (``_key_step`` checks it),
    so each loop of a round ends within n steps.  ``_raise_fwd`` checks that
    a round leaves the map (k+1)- or (k+2)-stable, and k+2 <= n-1 while the
    loop runs, so each round raises max_stable and there are at most n-2
    rounds.  ``check_claims`` is the last tripwire.
    """
    A, B = phi.source, phi.target
    n = A.n
    tower_a = decompose_tower(A)
    tower_b = decompose_tower(B)
    pa, pb = tower_a.perm, tower_b.perm
    C = [[0] * n for _ in range(n)]
    for i, row in enumerate(phi.C, start=1):
        for j, c in enumerate(row, start=1):
            C[pa[i] - 1][pb[j] - 1] = c
    cur = GradedIso(tower_a.base, tower_b.base, tuple(map(tuple, C)))
    raises: list[RaiseTrace] = []
    k = max_stable(cur)
    while k < n - 2:
        cur, rt = _raise_fwd(cur, k)
        raises.append(rt)
        k = max_stable(cur)
    # the forward moves of f and g: the towers', then each round's steps on that side
    src_fwd = list(tower_a.moves_applied)
    tgt_fwd = list(tower_b.moves_applied)
    for rt in raises:
        tgt_fwd += (mv for tr in rt.phase1 for mv in tr.moves)
        if rt.odd is not None:
            src_fwd += (mv for tr in rt.odd.source_steps for mv in tr.moves)
            if rt.odd.final_step is not None:
                src_fwd += rt.odd.final_step.moves
    cert = StabilizationCertificate(
        A=A, B=B, phi=phi, f_seq=invert_seq(A, src_fwd), g_seq=MoveSeq.build(B, tgt_fwd),
        phi_prime=cur, k_final=k
    )
    if not (r := check_claims(cert)):
        raise ContractViolation(r.diagnostic)
    if with_trace:
        return cert, StabilizeTrace(tuple(raises))
    return cert


class ReplayResult:
    __slots__ = ("ok", "diagnostic")

    def __init__(self, ok: bool, diagnostic: str | None = None):
        self.ok, self.diagnostic = ok, diagnostic

    def __bool__(self) -> bool:
        return self.ok

    def __eq__(self, other) -> bool:
        return isinstance(other, ReplayResult) and (self.ok, self.diagnostic) == (other.ok, other.diagnostic)

    def __hash__(self) -> int:
        return hash((self.ok, self.diagnostic))


def check_claims(cert: StabilizationCertificate) -> ReplayResult:
    """Check the claims tying a certificate's validated moves and maps together.

    The sequences and maps connect A, B and the moved matrices, phi_prime is
    g o phi o f exactly (g's moves fold onto phi as column operations, f's as
    row operations, last first), and k_final = max_stable(phi_prime) >= n - 2.
    """
    if cert.f_seq.end != cert.A:
        return ReplayResult(False, "source sequence does not end at A")
    if cert.g_seq.start != cert.B:
        return ReplayResult(False, "target sequence does not start at B")
    if cert.phi.source != cert.A or cert.phi.target != cert.B:
        return ReplayResult(False, "phi is not a map from A to B")
    if cert.phi_prime.source != cert.f_seq.start or cert.phi_prime.target != cert.g_seq.end:
        return ReplayResult(False, "phi_prime does not connect the moved matrices")
    C = [list(row) for row in cert.phi.C]
    for mv in cert.g_seq.moves:
        _then(C, mv)
    for mv in reversed(cert.f_seq.moves):
        _before(C, mv)
    if tuple(map(tuple, C)) != cert.phi_prime.C:
        return ReplayResult(False, "phi_prime is not g o phi o f")
    k = max_stable(cert.phi_prime)
    if k != cert.k_final:
        return ReplayResult(False, f"claimed k_final {cert.k_final}, recomputed {k}")
    if k < cert.A.n - 2:
        return ReplayResult(False, f"k_final {k} below n-2 = {cert.A.n - 2}")
    return ReplayResult(True, None)


def verify_certificate(cert: StabilizationCertificate) -> ReplayResult:
    """Re-verify an in-memory certificate from its raw data only.

    Rebuilds both move sequences from their starts and their moves'
    parameters (``rebuild``) and requires the stored moves and ends back,
    revalidates both isomorphisms, then ``check_claims``, which folds the
    moves onto phi.  Nothing from the construction is trusted.  A
    certificate read from JSON needs only ``check_claims``: the reader
    rebuilt each move and validated each map.
    """
    try:
        for side, seq in (("source", cert.f_seq), ("target", cert.g_seq)):
            params = ((mv.kind, mv.j, None if mv.v is None else mv.v.coeffs) for mv in seq.moves)
            rebuilt = rebuild(seq.start, params)
            if rebuilt.moves != seq.moves or rebuilt.end != seq.end:
                return ReplayResult(False, f"{side} sequence is not its rebuild from its parameters")
        phi = make_iso(cert.phi.source, cert.phi.target, cert.phi.C)
        phi_prime = make_iso(cert.phi_prime.source, cert.phi_prime.target, cert.phi_prime.C)
        fresh = StabilizationCertificate(cert.A, cert.B, phi, cert.f_seq, cert.g_seq, phi_prime, cert.k_final)
        return check_claims(fresh)
    except Exception as exc:
        return ReplayResult(False, f"certificate data invalid: {exc}")
