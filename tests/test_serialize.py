"""JSON round-trips and canonical output."""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

import bottcert as bc
from bottcert import serialize as ser
from helpers import compose_dense, hirzebruch, move_iso, odd_twist_isos


ZERO2 = bc.BottMatrix(2, [[], [0]])


def written(x):
    """``x`` as ``dumps_canonical`` writes it alone, in a plain-int array, in a mixed array and in an object."""
    return [json.loads(ser.dumps_canonical(o)) for o in (x, [x], (1, x), [None, x], {"k": x})]


class TestIntEncoding:
    """The writer owns the number format: a plain int of magnitude >= 2^53 is written as its decimal string."""

    def test_small_ints_stay_numbers(self):
        for x in (2**53 - 1, -(2**53) + 1):
            assert written(x) == [x, [x], [1, x], [None, x], {"k": x}]

    def test_large_ints_become_strings(self):
        for x in (2**53, -(2**53)):
            assert written(x) == [str(x), [str(x)], [1, str(x)], [None, str(x)], {"k": str(x)}]
        assert ser.dumps_canonical([2**53, 1]) == f'[\n  "{2**53}",\n  1\n]\n'

    def test_decode_round_trip(self):
        for x in (0, 7, -(2**60), 2**80 + 3):
            assert ser.decode_int(json.loads(ser.dumps_canonical(x))) == x
            assert [ser.decode_int(e) for e in json.loads(ser.dumps_canonical([x, -x]))] == [x, -x]

    def test_decode_rejects_bool_and_junk(self):
        with pytest.raises(bc.ShapeError, match="^expected an integer, got a boolean$"):
            ser.decode_int(True)
        with pytest.raises(bc.ShapeError):
            ser.decode_int("12.5")
        with pytest.raises(bc.ShapeError, match="^expected an integer, got float$"):
            ser.decode_int(1.5)

        class Count(int):
            pass

        with pytest.raises(bc.ShapeError, match="^expected an integer, got Count$"):
            ser.decode_int(Count(3))

    @pytest.mark.parametrize(
        "text",
        ["1_0", " 7 ", " 1", "7\n", "+3", "\u0663", "1\u0663", "", "-"],
        ids=["underscore", "spaces", "leading-space", "newline", "plus",
             "arabic-indic", "mixed-digits", "empty", "sign-only"],
    )
    def test_decode_rejects_lax_strings(self, text):
        with pytest.raises(bc.ShapeError, match="not a decimal integer"):
            ser.decode_int(text)

    def test_decode_accepts_plain_decimal_strings(self):
        assert [ser.decode_int(t) for t in ("0", "-0", "007", "-12", str(2**80))] == [0, 0, 7, -12, 2**80]

    def test_lax_string_in_certificate_does_not_parse(self):
        obj = even_case_cert_obj()
        obj["g_seq"]["moves"][0]["j"] = " " + str(obj["g_seq"]["moves"][0]["j"])
        res = ser.verify_certificate_obj(obj)
        assert not res.ok and "not a decimal integer" in res.diagnostic


class TestRoundTrips:
    def test_matrix(self):
        A = bc.BottMatrix(3, [[], [2**60], [1, -(2**70)]])
        obj = json.loads(json.dumps(ser.matrix_to_obj(A)))
        assert ser.matrix_from_obj(obj) == A

    def test_iso(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        obj = json.loads(json.dumps(ser.iso_to_obj(phi)))
        assert ser.iso_matrix_from_obj(obj) == [[1, 0], [-1, 1]]

    def test_move_seq(self):
        B = hirzebruch(2)
        seq = bc.MoveSeq.build(B, [("twist", 2, (1, 0)), ("switch", 1, None)])
        obj = json.loads(json.dumps(ser.seq_to_obj(seq)))
        back = bc.rebuild(*ser.seq_from_obj(obj))
        assert back.start == seq.start and back.end == seq.end
        assert back.moves == seq.moves

    def test_certificate(self):
        A = bc.BottMatrix(3, [[], [1], [0, 0]])
        phi0 = bc.make_iso(A, A, [[-1, 2, 0], [0, 1, 0], [0, 0, 1]])
        phi = compose_dense(phi0, bc.invert(move_iso(A, ("switch", 2, None))))
        cert = bc.stabilize_full(phi)
        obj = json.loads(json.dumps(ser.certificate_to_obj(cert)))
        back = ser.certificate_from_obj(obj)
        assert back.A == cert.A and back.B == cert.B
        assert back.phi.C == cert.phi.C and back.phi_prime.C == cert.phi_prime.C
        assert back.k_final == cert.k_final
        assert bc.verify_certificate(back).ok
        assert ser.verify_certificate_obj(obj).ok

    def test_verify_rejects_tampered_json(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        obj = ser.certificate_to_obj(bc.stabilize_full(phi))
        obj = json.loads(json.dumps(obj))
        obj["phi"]["C"][0][0] += 1
        res = ser.verify_certificate_obj(obj)
        assert not res.ok

    def test_verify_rejects_wrong_schema(self):
        res = ser.verify_certificate_obj({"schema": "nope"})
        assert not res.ok and "schema" in res.diagnostic


def even_case_cert_obj():
    # g_seq holds a twist with v = [0, 1, 0]; f_seq is empty
    A = bc.BottMatrix(3, [[], [0], [0, 0]])
    B = bc.BottMatrix(3, [[], [0], [0, 2]])
    phi = bc.make_iso(A, B, [[0, -1, 1], [1, 0, 0], [0, 1, 0]])
    return json.loads(json.dumps(ser.certificate_to_obj(bc.stabilize_full(phi))))


def _twist_v_as_digits(obj):
    mv = obj["g_seq"]["moves"][0]
    assert mv["kind"] == "twist" and mv["v"] == [0, 1, 0]
    mv["v"] = "010"


def _moves_as_object(obj):
    assert obj["f_seq"]["moves"] == []
    obj["f_seq"]["moves"] = {}


def _moves_as_string(obj):
    assert obj["f_seq"]["moves"] == []
    obj["f_seq"]["moves"] = ""


def _matrix_row_as_digits(obj):
    assert obj["B"]["rows"][2] == [0, 2]
    obj["B"]["rows"][2] = "02"


def _iso_row_as_digits(obj):
    assert obj["phi"]["C"][1] == [1, 0, 0]
    obj["phi"]["C"][1] = "100"


class TestStrictLists:
    """Arrays are read only from JSON lists, never from strings or objects."""

    def test_cert_fixture_is_valid(self):
        assert ser.verify_certificate_obj(even_case_cert_obj()).ok

    @pytest.mark.parametrize(
        "mutate",
        [_twist_v_as_digits, _moves_as_object, _moves_as_string, _matrix_row_as_digits, _iso_row_as_digits],
    )
    def test_certificate_rejects_non_list(self, mutate):
        obj = even_case_cert_obj()
        mutate(obj)
        res = ser.verify_certificate_obj(obj)
        assert not res.ok and "must be a list" in res.diagnostic
        with pytest.raises(bc.ShapeError):
            ser.certificate_from_obj(obj)

    def test_seq_twist_v_string(self):
        start = ser.matrix_to_obj(hirzebruch(2))
        ok = bc.rebuild(*ser.seq_from_obj({"start": start, "moves": [{"kind": "twist", "j": 2, "v": [1, 0]}]}))
        assert ok.end == hirzebruch(0)
        # a move is decoded only as the rebuild reads it
        parts = ser.seq_from_obj({"start": start, "moves": [{"kind": "twist", "j": 2, "v": "10"}]})
        with pytest.raises(bc.ShapeError):
            bc.rebuild(*parts)

    @pytest.mark.parametrize("moves", [{}, "", None], ids=["object", "string", "null"])
    def test_seq_moves_not_a_list(self, moves):
        with pytest.raises(bc.ShapeError):
            ser.seq_from_obj({"start": ser.matrix_to_obj(ZERO2), "moves": moves})


def _edit(*path, value=None):
    """A mutation that sets the entry at path to value, or deletes it when value is None."""

    def mutate(obj):
        *head, last = path
        node = obj
        for key in head:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = value
        return obj

    return mutate


class TestTrustBoundary:
    """The reader's own rejections, each with its diagnostic, on an n = 4 certificate.

    Its g_seq starts with the twist (3, -y_2).
    """

    @pytest.mark.parametrize(
        "mutate, diagnostic",
        [
            (lambda obj: [obj], "certificate must be a JSON object"),
            (_edit("phi"), "certificate is missing key 'phi'"),
            (_edit("g_seq", "start"), "move sequence object needs keys 'start' and 'moves'"),
            (_edit("g_seq", "moves", 0, "kind"), "move object needs keys 'kind' and 'j'"),
            (_edit("B", value={"n": 3, "rows": [[], [0], [0, 0]]}), "source has n=4 but target has n=3"),
            (_edit("g_seq", "moves", 0, "j", value=0), "twist position 0 outside 1..4"),
            (_edit("comment", value="a note"), "unknown key 'comment'"),
            (_edit("A", "extra", value={}), "unknown key 'extra'"),
            (_edit("phi", "extra", value={}), "unknown key 'extra'"),
            (_edit("f_seq", "extra", value={}), "unknown key 'extra'"),
            (_edit("g_seq", "moves", 0, "extra", value={}), "unknown key 'extra'"),
            (_edit("A", "n"), "matrix object needs keys 'n' and 'rows'"),
            (_edit("phi", value=[[1]]), "isomorphism object needs key 'C'"),
            (_edit("f_seq", value=[]), "move sequence object needs keys 'start' and 'moves'"),
            (_edit("g_seq", "moves", 0, "v"), "twist move needs key 'v'"),
        ],
        ids=["list", "no-phi", "seq-no-start", "move-no-kind", "B-other-n", "twist-at-0",
             "cert-comment", "matrix-extra", "map-extra", "seq-extra", "twist-extra", "matrix-no-n",
             "map-a-list", "seq-a-list", "twist-no-v"],
    )
    def test_rejection(self, mutate, diagnostic):
        obj = json.loads(json.dumps(ser.certificate_to_obj(bc.stabilize_full(odd_twist_isos()[0]))))
        assert ser.verify_certificate_obj(obj).ok
        assert obj["g_seq"]["moves"][0] == {"kind": "twist", "j": 3, "v": [0, -1, 0, 0]}
        res = ser.verify_certificate_obj(mutate(obj))
        assert (res.ok, res.diagnostic) == (False, f"certificate does not parse: {diagnostic}")

    @pytest.mark.parametrize("key, value", [("v", ["junk", None]), ("extra", {})], ids=["v", "extra"])
    def test_switch_reads_only_kind_and_j(self, key, value):
        cert = bc.stabilize_full(odd_twist_isos()[0])
        end = cert.g_seq.end
        j = next(j for j in range(1, end.n) if end.a(j + 1, j) == 0)
        obj = json.loads(json.dumps(ser.certificate_to_obj(cert)))
        pair = [{"kind": "switch", "j": j}, {"kind": "switch", "j": j}]
        obj["g_seq"]["moves"] += pair
        assert ser.verify_certificate_obj(obj).ok  # a switch taken twice leaves g's end and phi_prime as they were
        pair[1][key] = value
        res = ser.verify_certificate_obj(obj)
        assert (res.ok, res.diagnostic) == (False, f"certificate does not parse: unknown key {key!r}")

    def test_library_bug_is_not_a_rejection(self, monkeypatch):
        # every reader checks each type before use, so a TypeError past the reader is a bug and raises
        obj = json.loads(json.dumps(ser.certificate_to_obj(bc.stabilize_full(odd_twist_isos()[0]))))

        def broken(C, mv):
            raise TypeError("planted bug")

        monkeypatch.setattr("bottcert.moves._then", broken)
        with pytest.raises(TypeError, match="planted bug"):
            ser.verify_certificate_obj(obj)

    def test_int_past_the_digit_limit_in_a_diagnostic_is_a_rejection(self):
        # C's entry (3001 digits) decodes, det C = 1 and rows 1 and 2 hold, but row 3's residue holds its
        # square (6001 digits): the relation's diagnostic prints it as its bit length past the digit limit
        M = {"n": 3, "rows": [[], [1], [0, 0]]}
        C = {"C": [[1, 0, 0], [0, 1, 0], [0, "1" + "0" * 3000, 1]]}
        obj = {"schema": ser.CERT_SCHEMA, "A": M, "B": M, "phi": C, "f_seq": {"start": M, "moves": []},
               "g_seq": {"start": M, "moves": []}, "phi_prime": C, "k_final": 1}
        res = ser.verify_certificate_obj(obj)
        assert res.ok is False and res.diagnostic.startswith("certificate does not parse: ")
        if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 6001:
            assert res.diagnostic.startswith("certificate does not parse: relation 3 violated, residue <int of ")

    def test_object_with_a_schema_past_the_digit_limit_is_a_rejection(self):
        # a caller's object need not come from JSON: its schema's message prints the int through int_text
        res = ser.verify_certificate_obj({"schema": 10**5000})
        assert res.ok is False
        assert res.diagnostic.startswith("certificate does not parse: unsupported certificate schema <int of")


class TestCanonicalDump:
    def test_sorted_keys_and_trailing_newline(self):
        s = ser.dumps_canonical({"b": 1, "a": [2, 1]})
        assert s == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'

    def test_deterministic(self):
        A = bc.BottMatrix(3, [[], [2], [1, 0]])
        assert ser.dumps_canonical(ser.matrix_to_obj(A)) == ser.dumps_canonical(
            ser.matrix_to_obj(bc.BottMatrix(3, [[], [2], [1, 0]]))
        )


class IntSubclass(int):
    pass


_EDGE_INTS = [2**53 - 1, 2**53, 2**53 + 1, 2**80]
INTS = st.one_of(
    st.integers(),
    st.sampled_from(_EDGE_INTS + [-x for x in _EDGE_INTS]),
    st.integers(min_value=-(2**200), max_value=2**200),
)
TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'), st.characters()),
               max_size=8)
SCALARS = st.one_of(INTS, st.booleans(), st.none(), st.floats(allow_nan=False, allow_infinity=False), TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(TEXT, inner, max_size=6),
        st.lists(INTS, max_size=8),
        st.lists(st.one_of(INTS, st.booleans(), INTS.map(IntSubclass)), max_size=8),
    ),
    max_leaves=20,
)


def big_ints_as_strings(x):
    """A copy of x with each plain int of magnitude >= 2^53 replaced by its decimal string; bools and int
    subclasses stay as they are."""
    if type(x) is int:
        return str(x) if abs(x) >= 2**53 else x
    if isinstance(x, (list, tuple)):
        return [big_ints_as_strings(e) for e in x]
    if isinstance(x, dict):
        return {k: big_ints_as_strings(v) for k, v in x.items()}
    return x


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(VALUES)
def test_writer_is_json_dumps_indent_2(x):
    assert ser.dumps_canonical(x) == json.dumps(big_ints_as_strings(x), sort_keys=True, indent=2) + "\n"
