"""Certified stabilization of graded ring isomorphisms.

Given a validated isomorphism phi between two Bott rings, the routines here
produce realizable move sequences f (on the source side) and g (on the
target side) such that g o phi o f preserves the filtration up to the top
two stages, together with a certificate, whose type, reader and checks are in ``serialize``.

The engine is a height-reduction step: for a k-stable phi whose image of
x_{k+1} has height l > k+1, the target matrix admits moves (depending on
the parity of p = b_{l,l-1}) after which the image lands in F_{l-1}.  The
identities this relies on are mathematically forced for valid isomorphisms;
each one that no earlier check implies is recomputed at runtime, and a
failure raises a tripwire error rather than producing a wrong certificate.
A move's own precondition is checked once, by ``switch`` or ``twist`` as
the step builds it; a move that fails to build there is a tripwire too.
Degree-2 classes (images, w, u, a twist's v) are tuples of n coefficients.
"""

from __future__ import annotations

from .errors import BottError, RangeError, TripwireError, index, int_text
from .iso import GradedIso, invert, max_stable
from .moves import MoveSeq, _apply, _then, invert_move
from .ring import height, product_is_zero
from .serialize import ReplayResult, StabilizationCertificate, certificate_from_fields, check_claims
from .structure import decompose_tower, same_block


def decompose_xk(phi: GradedIso, k: int) -> int | None:
    """The height l of the image of x_{k+1} for a k-stable isomorphism.

    Returns None when the image already lies in F_{k+1} (nothing to do);
    otherwise l, after verifying that coefficients at indices strictly
    between k and l equal -eps * b_{l,j}, where e = 2 eps is the
    coefficient at y_l.  That makes the image w + eps(2y_l - trunc(beta_l))
    with w its F_k part.  A mismatch raises a TripwireError.
    """
    if not phi.is_k_stable(index(k, 0, phi.source.n - 1, "stability index")):
        raise RangeError(f"isomorphism is not {k}-stable")
    img = phi.C[k]
    ell = height(img)
    if ell <= k:
        raise TripwireError("image of x_{k+1} lies inside F_k")
    if ell == k + 1:
        return None
    B = phi.target
    top = img[ell - 1]
    for j in range(k + 1, ell):
        if 2 * img[j - 1] != -top * B.a(ell, j):
            raise TripwireError(f"coefficient at y_{j} is {int_text(img[j - 1])}, expected -eps*b[{ell},{j}]")
    return ell


class KeyStepTrace:
    """Record of one height-reduction step, for audit and conformance tests."""
    __slots__ = ("k", "ell", "p", "case", "e", "w", "u", "moves")

    def __init__(self, k: int, ell: int, p: int, case: str, e: int, w: tuple[int, ...],
                 u: tuple[int, ...] | None, moves: tuple[tuple, ...]):
        self.k, self.ell, self.p, self.case = k, ell, p, case  # "zero" | "even" | "odd"
        self.e, self.w, self.u = e, w, u  # e = 2 eps
        self.moves = moves  # one to three, run from the target of the map reduced


def _key_step(phi: GradedIso, k: int, ell: int):
    """Height-reduction step at l = ``decompose_xk(phi, k)``; returns (phi', trace).

    The image of x_{k+1} is eps(2y_l - trunc(beta_l)) + w: e = 2 eps is its
    coefficient at y_l and w its F_k part.
    """
    B = phi.target
    n = B.n
    e = phi.C[k][ell - 1]
    w = phi.C[k][:k] + (0,) * (n - k)
    p = B.a(ell, ell - 1)
    moves: list[tuple] = []
    C = [list(row) for row in phi.C]  # phi, then the moves so far as column operations
    cur = B

    def play(kind: str, j: int, v: tuple[int, ...] | None = None) -> None:
        """Build the move (kind, j, v) by ``_apply`` and fold it onto C; a failed build is a bug."""
        nonlocal cur
        try:
            mv, cur = _apply(cur, kind, j, v)
        except BottError as exc:
            raise TripwireError(f"key step at l={ell} could not build a move: {exc}") from exc
        moves.append(mv)
        _then(C, mv)

    u: tuple[int, ...] | None = None
    if p == 0:
        case = "zero"
        # the image has no y_{l-1} term, so exchanging l-1 and l drops the height
        play("switch", ell - 1)
    else:
        beta = B.alpha(ell)
        head = beta[:k] + (0,) * (n - k)  # beta_l minus its truncation
        bar_ell = (0,) * k + beta[k:]
        phi_alpha = phi.apply2(phi.source.alpha(k + 1))
        # forced identity: 2eps*(beta_l - trunc beta_l) = phi(alpha_{k+1}) - 2w
        if [e * h for h in head] != [a - 2 * t for a, t in zip(phi_alpha, w)]:
            raise TripwireError("F_k part of beta_l does not match phi(alpha_{k+1})")
        u = tuple(2 * h for h in head)
        # for k < j < l-1, the coefficient of y_j y_{l-1} in this product is
        # p(2 trunc(beta_l)_j + p b_{l-1,j}): with p != 0 it forces the identity
        # 2 trunc(beta_l) = p (2 y_{l-1} - trunc(beta_{l-1}))
        if not product_is_zero(B, bar_ell, [b + t for b, t in zip(bar_ell, u)]):
            raise TripwireError("trunc(beta_l) * (trunc(beta_l) + u) != 0")
        if p % 2 == 0:
            case = "even"
            # twist checks v(beta_l - v) = 0, and the switch that b_{l,l-1} is cleared
            play("twist", ell, (0,) * (ell - 2) + (p // 2,) + (0,) * (n - ell + 1))
            play("switch", ell - 1)
        else:
            case = "odd"
            # p trunc(beta_{l-1}) is even by that identity, so with p odd it halves
            # exactly; twist checks v(beta_{l-1} - v) = 0.  No caller steps at l = k+2
            # with p odd (_descend steps at l > k+2, _raise_fwd at k+2 for even p only),
            # so the loop reaches column l-2
            play("twist", ell - 1, (0,) * k + tuple(t // 2 for t in B.alpha(ell - 1)[k:]))
            for col in range(k + 1, ell - 1):
                if cur.a(ell, col) != 0:
                    raise TripwireError(f"entry (l, {col}) must vanish after the odd twist")
                if cur.a(ell - 1, col) != 0:
                    raise TripwireError(f"entry (l-1, {col}) must vanish after the odd twist")
            play("switch", ell - 2)
            play("switch", ell - 1)
    keep_below = ell - 1 if case in ("zero", "even") else ell - 2
    for i in range(1, keep_below):
        if cur.rows[i - 1] != B.rows[i - 1]:
            raise TripwireError(f"row {i} changed; rows below {keep_below} must be kept")
    phi_new = GradedIso(phi.source, cur, tuple(map(tuple, C)))
    if not phi_new.is_k_stable(k):
        raise TripwireError("height reduction broke k-stability")
    if height(phi_new.C[k]) >= ell:
        raise TripwireError("height of the tracked image did not decrease")
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
    """Key steps while the tracked height is above ``floor``; returns (phi', steps, l).

    l is ``decompose_xk(phi', k)``, None when the height is k+1.
    """
    steps: list[KeyStepTrace] = []
    while (ell := decompose_xk(phi, k)) is not None and ell > floor:
        phi, tr = _key_step(phi, k, ell)
        steps.append(tr)
    return phi, steps, ell


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
        raise TripwireError("k+1 and k+2 must share a block on the target side")
    # the inverse maps the target ring back to the source ring and is k-stable
    psi, steps, ell = _descend(invert(phi), k, k + 3)
    if ell is None:
        raise TripwireError("inverse image of y_{k+1} fell below height k+2")
    final_entry = None
    final_tr = None
    if ell == k + 3:
        A_cur = psi.target
        if not same_block(decompose_tower(A_cur), k + 1, k + 3):
            raise TripwireError("k+1 and k+3 must share a block on the source side")
        final_entry = A_cur.a(k + 3, k + 2)
        if final_entry % 2 != 0:
            raise TripwireError("entry (k+3, k+2) must be even on the source side")
        psi, final_tr = _key_step(psi, k, ell)
    # row k+2 of the inverse follows: 2 psi(y_{k+2}) is eps'(2x_{k+1} - alpha_{k+1})
    # plus p psi(y_{k+1}) plus an F_k class, all of height <= k+2
    if height(psi.C[k + 1]) > k + 2:
        raise TripwireError("inverse image of y_{k+2} must land in F_{k+2}")
    return invert(psi), OddBranchTrace(p, tuple(steps), final_entry, final_tr)


def _raise_fwd(phi: GradedIso, k: int):
    """Raise stability by at least one; returns (phi', trace), whose steps hold the moves.

    The first ``decompose_xk`` checks that k is in range and phi is k-stable.
    """
    odd: OddBranchTrace | None = None
    phi, phase1, ell = _descend(phi, k, k + 2)
    if ell is not None:  # height is exactly k+2
        p = phi.target.a(k + 2, k + 1)
        if p % 2 == 0:
            phi, tr = _key_step(phi, k, ell)
            phase1.append(tr)
        else:
            phi, odd = _odd_branch(phi, k, p)
    if not (phi.is_k_stable(k + 1) or phi.is_k_stable(k + 2)):
        raise TripwireError("result is neither (k+1)- nor (k+2)-stable")
    return phi, RaiseTrace(k, tuple(phase1), odd)


class StabilizeTrace:
    __slots__ = ("raises",)

    def __init__(self, raises: tuple[RaiseTrace, ...]):
        self.raises = raises

    def steps(self):
        """Every event in run order as (k, side, record), the one walk of the nesting: a round's key steps
        on side "target", then, if it took an odd branch, ("odd", that branch), its "source" and "final" steps."""
        for rt in self.raises:
            yield from ((rt.k, "target", st) for st in rt.phase1)
            if rt.odd is not None:
                yield rt.k, "odd", rt.odd
                yield from ((rt.k, "source", st) for st in rt.odd.source_steps)
                if rt.odd.final_step is not None:
                    yield rt.k, "final", rt.odd.final_step


def stabilize_full(phi: GradedIso, with_trace: bool = False):
    """Iterate stability raising until the top two stages are preserved.

    Both matrices are first brought to stagewise order by switches (those
    moves are part of the certificate); switch maps carry no signs, so the
    normalized map is phi relabelled by the towers' ``perm``.  Each key
    step lowers the height of the tracked image (``_key_step`` checks it),
    so each loop of a round ends within n steps.  ``_raise_fwd`` checks that
    a round leaves the map (k+1)- or (k+2)-stable, and k+2 <= n-1 while the
    loop runs, so each round raises max_stable and there are at most n-2
    rounds.  f is replayed back from the working source by the inverse moves
    and g forward from B; ``check_claims``, the last tripwire, compares f's
    end with A and g's end with the working target.  phi is a validated
    isomorphism, so a domain error raised on the way (by a tower, a move, an
    inversion or a sequence build, or ``decompose_xk``'s RangeError for a
    map that is not k-stable), is a bug too: it becomes a TripwireError
    chained from it, and a tripwire passes through unchanged.
    """
    try:
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
        trace = StabilizeTrace(tuple(raises))
        # the forward moves of f and g: the towers', then each key step's on its side
        src_fwd = list(tower_a.moves_applied)
        tgt_fwd = list(tower_b.moves_applied)
        for _, side, rec in trace.steps():
            if side != "odd":
                (tgt_fwd if side == "target" else src_fwd).extend(rec.moves)
        cert = StabilizationCertificate(
            A=A, B=B, phi=phi, f_seq=MoveSeq.build(cur.source, [invert_move(mv) for mv in reversed(src_fwd)]),
            g_seq=MoveSeq.build(B, tgt_fwd), phi_prime=cur, k_final=k
        )
    except TripwireError:
        raise
    except BottError as exc:
        raise TripwireError(f"certificate construction failed: {exc}") from exc
    if not (r := check_claims(cert)):
        raise TripwireError(r.diagnostic)
    if with_trace:
        return cert, trace
    return cert


# here, not in serialize: bench/run.py traces it as the span stabilize.verify_certificate
def verify_certificate(cert: StabilizationCertificate) -> ReplayResult:
    """Re-verify an in-memory certificate from its raw data only.

    Reads it through ``certificate_from_fields``, which checks the type of
    each part and builds it again from them as the JSON reader does,
    requires each sequence's moves and end and each map's source and target
    back, then runs ``check_claims``.  Nothing from the construction is
    trusted; a ``BottError`` yields False.
    """
    try:
        fresh = certificate_from_fields(cert)
        stored, rebuilt = ((c.f_seq.moves, c.f_seq.end, c.g_seq.moves, c.g_seq.end, c.phi.source,
                            c.phi.target, c.phi_prime.source, c.phi_prime.target) for c in (cert, fresh))
        if stored != rebuilt:
            return ReplayResult(False, "certificate is not its rebuild from its parameters")
    except BottError as exc:
        return ReplayResult(False, f"certificate data invalid: {exc}")
    return check_claims(fresh)
