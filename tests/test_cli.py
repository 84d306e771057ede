"""Command line interface: schemas, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bottcert as bc
import bottcert.cli
from bottcert import structure
from bottcert.cli import main
from bottcert.serialize import dumps_canonical, matrix_to_obj
from test_stabilize import even_case_fixture, odd_step_fixture


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(dumps_canonical(payload), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ring(files, capsys):
    path = files("h3.json", {"n": 3, "rows": [[], [1], [1, 0]]})
    code, out = run(capsys, "ring", path)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert data["alpha"] == [[0, 0, 0], [1, 0, 0], [1, 0, 0]]
    assert data["alpha_sq_zero"] == [True, True, True]


def test_sqzero_h3(files, capsys):
    path = files("h3.json", {"n": 3, "rows": [[], [1], [1, 0]]})
    code, out = run(capsys, "sqzero", path)
    assert code == 0
    gens = json.loads(out)["generators"]
    assert [g["index"] for g in gens] == [1, 2, 3]
    assert gens[1]["gen"] == [-1, 2, 0]
    assert gens[0]["primitive"] == [1, 0, 0]


def test_decompose(files, capsys):
    path = files("a.json", {"n": 3, "rows": [[], [0], [1, 1]]})
    code, out = run(capsys, "decompose", path)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "blocks": [[1], [2], [3]],
        "dims": [2, 3],
        "levels": [1, 1, 2],
        "partition_if_qtrivial": None,
    }


def test_decompose_qtrivial(files, capsys):
    path = files("h3.json", {"n": 3, "rows": [[], [1], [1, 0]]})
    _, out = run(capsys, "decompose", path)
    data = json.loads(out)
    assert data["partition_if_qtrivial"] == [3]
    assert data["blocks"] == [[1, 2, 3]]


def test_iso_check_valid(files, capsys):
    a = files("a.json", {"n": 2, "rows": [[], [0]]})
    b = files("b.json", {"n": 2, "rows": [[], [2]]})
    c = files("c.json", {"C": [[1, 0], [-1, 1]]})
    code, out = run(capsys, "iso-check", a, b, c)
    assert code == 0
    data = json.loads(out)
    assert data == {"valid": True, "max_stable": 2, "sigma": [1, 2], "eps_times_2": [2, 2]}


def test_iso_check_invalid(files, capsys):
    a = files("a.json", {"n": 2, "rows": [[], [0]]})
    b = files("b.json", {"n": 2, "rows": [[], [1]]})
    c = files("c.json", {"C": [[1, 0], [0, 1]]})
    code, out = run(capsys, "iso-check", a, b, c)
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is False and "reason" in data


def test_iso_search_parity(files, capsys):
    a = files("f0.json", {"n": 2, "rows": [[], [0]]})
    b = files("f1.json", {"n": 2, "rows": [[], [1]]})
    code, out = run(capsys, "iso-search", a, b, "--bound", "6")
    assert code == 0
    assert json.loads(out) == {"bound": 6, "isos": []}


def test_iso_search_bound_not_an_integer(files, capsys):
    a = files("z.json", {"n": 2, "rows": [[], [0]]})
    code = main(["iso-search", a, a, "--bound", "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "invalid int value: 'x'" in captured.err


def test_iso_search_huge_bound(files, capsys):
    # the bound filters rows; it does not set how many candidates are tried
    rows = [[], [2], [0, 1]]
    a = files("a.json", {"n": 3, "rows": rows})
    code, out = run(capsys, "iso-search", a, a, "--bound", "1000000000")
    assert code == 0
    data = json.loads(out)
    A = bc.make_bott_matrix(3, rows)
    assert data["bound"] == 10**9
    assert len(data["isos"]) == len(bc.search_isos(A, A, 10**9)) > 0


def test_import_graph_is_integer_only():
    # the library computes in integers, so importing the CLI loads neither
    # fractions nor decimal; its records are plain classes, so it loads no
    # dataclasses, inspect or typing either.  -S keeps site (and any .pth
    # file it runs) from loading modules of its own.
    src = str(Path(bc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    banned = "{'fractions', 'decimal', 'dataclasses', 'inspect', 'typing'}"
    code = f"import sys, bottcert.cli; print(sorted({banned} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", ["iso-check", "stabilize"])
def test_iso_matrix_rejects_non_integers(files, capsys, command):
    a = files("z.json", {"n": 2, "rows": [[], [0]]})
    c = files("c.json", {"C": [[1.9, 0], [0, True]]})
    code, out = run(capsys, command, a, a, c)
    assert code == 1
    assert set(json.loads(out)) == {"error"}


def test_stabilize_and_verify_files(files, capsys, tmp_path):
    a = files("a.json", {"n": 3, "rows": [[], [0], [1, 0]]})
    b = files("b.json", {"n": 3, "rows": [[], [1], [0, 0]]})
    c = files("c.json", {"C": [[-1, 2, 0], [0, 0, 1], [0, 1, 0]]})
    out_path = str(tmp_path / "cert.json")
    code, out = run(capsys, "stabilize", a, b, c, "--out", out_path)
    assert code == 0
    summary = json.loads(out)
    assert summary["verified"] is True and summary["k_final"] >= 1
    code, out = run(capsys, "verify-cert", out_path)
    assert code == 0
    assert json.loads(out) == {"valid": True}


def test_stabilize_stdout_certificate(files, capsys):
    a = files("a.json", {"n": 2, "rows": [[], [0]]})
    c = files("c.json", {"C": [[0, 1], [1, 0]]})
    code, out = run(capsys, "stabilize", a, a, c)
    assert code == 0
    cert = json.loads(out)
    assert cert["schema"] == "bott-stabilization-cert/1"
    assert cert["k_final"] >= 0


def test_verify_cert_rejects_tampering(files, capsys, tmp_path):
    a = files("a.json", {"n": 2, "rows": [[], [2]]})
    c = files("c.json", {"C": [[1, 0], [0, 1]]})
    out_path = str(tmp_path / "cert.json")
    run(capsys, "stabilize", a, a, c, "--out", out_path)
    cert = json.loads(open(out_path).read())
    cert["k_final"] = 0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(dumps_canonical(cert), encoding="utf-8")
    code, out = run(capsys, "verify-cert", str(bad_path))
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is False and "diagnostic" in data


def test_decompose_unordered_matrix(files, capsys):
    # stages are found after reordering; levels and blocks are reported for
    # the original generator indices
    path = files("u.json", {"n": 4, "rows": [[], [0], [1, 1], [0, 0, 0]]})
    code, out = run(capsys, "decompose", path)
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [3, 4]
    assert data["levels"] == [1, 1, 2, 1]
    assert data["blocks"] == [[1], [2], [3], [4]]
    assert data["partition_if_qtrivial"] is None


def test_byte_determinism(files, capsys):
    path = files("a.json", {"n": 4, "rows": [[], [1], [0, 2], [1, 1, 0]]})
    outs = set()
    for _ in range(2):
        code, out = run(capsys, "decompose", path)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_domain_error_exit_code(files, capsys, tmp_path):
    code, out = run(capsys, "ring", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error" in json.loads(out)
    bad = files("bad.json", {"n": 2, "rows": [[], [1, 2]]})
    code, out = run(capsys, "ring", bad)
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("command", ["verify-cert", "decompose", "iso-check"])
def test_deeply_nested_json_is_a_domain_error(capsys, tmp_path, command):
    # deeper than the parser's recursion limit: exit 1 with a payload, no traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    argv = [command] + [str(deep)] * (3 if command == "iso-check" else 1)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": f"{deep}: JSON nested too deeply to parse"}
    assert captured.err == ""


def test_usage_error_exit_code(files, capsys):
    path = files("a.json", {"n": 2, "rows": [[], [0]]})
    assert main(["ring", path, "--no-such-flag"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_matrix_big_integers_round_trip(files, capsys):
    big = 2**70
    path = files("big.json", {"n": 2, "rows": [[], [str(big)]]})
    code, out = run(capsys, "ring", path)
    assert code == 0
    data = json.loads(out)
    assert data["alpha"][1][0] == str(big)
    assert bc.make_bott_matrix(2, [[], [big]]).a(2, 1) == big
    assert json.loads(dumps_canonical(matrix_to_obj(bc.make_bott_matrix(2, [[], [big]]))))[
        "rows"
    ][1][0] == str(big)


# sha256 of stdout for criterion 8's commands, run in a directory holding
# the fixtures; the stabilize --out file equals the stdout certificate
PINNED_STDOUT = [
    (["ring", "h3.json"], "11221b42747a3ebc846eb43a24ade155eed495b0db1bd7b072864eea51d65eeb"),
    (["sqzero", "a.json"], "2784879a5177dd67036d682362b0f525ce8f52ad05f0a385906d35dd0e0e7006"),
    (["decompose", "a.json"], "e9b8789bee4381514ee6f206cfe99be5e8bf7ce11f5e2332d7540c7170e03296"),
    (
        ["iso-check", "f0.json", "f2.json", "c.json"],
        "6f302e8c8d974c0e97decb388e1c7e9d4893175868b2d4584dc2a2560bcee093",
    ),
    (
        ["iso-search", "f0.json", "f2.json", "--bound", "3"],
        "04dc32b74af2d68e0259b3d1d7cacc4a0b1162f5e87eabc56f85d9b4c889adcd",
    ),
    (
        ["stabilize", "f0.json", "f2.json", "c.json"],
        "24b07543e9c670a158cbcee51071225040754ae6e56b8c774f5e52eb1b6c1ac3",
    ),
    (
        ["stabilize", "f0.json", "f2.json", "c.json", "--out", "cert.json"],
        "21aba9cf9ce984504eb346a90d1e93036fb9131c4846890f490aa81d0f263c81",
    ),
    (["verify-cert", "cert.json"], "ff965d1b75e95c9b936295f68f0dbeb21fa38dce342feaed073ffa6bef3cfc9a"),
]


def test_pinned_stdout_bytes(files, capsys, tmp_path, monkeypatch):
    files("h3.json", {"n": 3, "rows": [[], [1], [1, 0]]})
    files("a.json", {"n": 4, "rows": [[], [1], [0, 2], [1, 1, 0]]})
    files("f0.json", {"n": 2, "rows": [[], [0]]})
    files("f2.json", {"n": 2, "rows": [[], [2]]})
    files("c.json", {"C": [[1, 0], [-1, 1]]})
    monkeypatch.chdir(tmp_path)
    for argv, digest in PINNED_STDOUT:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    cert_digest = hashlib.sha256((tmp_path / "cert.json").read_bytes()).hexdigest()
    assert cert_digest == PINNED_STDOUT[5][1]


def test_tripwire_exit_code(files, capsys, monkeypatch):
    def fire(phi):
        raise bc.ContractViolation("forced for the test")

    monkeypatch.setattr(bottcert.cli, "stabilize_full", fire)
    a = files("a.json", {"n": 2, "rows": [[], [0]]})
    c = files("c.json", {"C": [[0, 1], [1, 0]]})
    code, out = run(capsys, "stabilize", a, a, c)
    assert code == 3
    assert json.loads(out) == {"error": "forced for the test", "tripwire": True}


def test_blocked_well_ordering_is_a_tripwire(files, capsys, monkeypatch):
    def fire(A):
        raise bc.WellOrderFailure("forced for the test")

    monkeypatch.setattr(bottcert.cli, "decompose_tower", fire)
    a = files("a.json", {"n": 2, "rows": [[], [0]]})
    code, out = run(capsys, "decompose", a)
    assert code == 3
    assert json.loads(out) == {"error": "forced for the test", "tripwire": True}


def test_failed_extraction_is_a_tripwire(files, capsys, monkeypatch):
    # a validated isomorphism always permutes the classes 2x_i - alpha_i; if it does not, that is a bug
    def fire(phi, tower_src, tower_tgt):
        raise bc.ExtractionFailure(1, "forced")

    monkeypatch.setattr(bottcert.cli, "extract_sigma_eps", fire)
    a = files("a.json", {"n": 2, "rows": [[], [0]]})
    c = files("c.json", {"C": [[0, 1], [1, 0]]})
    code, out = run(capsys, "iso-check", a, a, c)
    assert code == 3
    assert json.loads(out) == {"error": "generator 1: forced", "tripwire": True}


@pytest.mark.parametrize("fixture", [even_case_fixture, odd_step_fixture])
@pytest.mark.parametrize("name, error", [("twist", bc.TwistInvalid), ("switch", bc.SwitchBlocked)])
def test_failed_key_step_move_is_a_tripwire(files, capsys, monkeypatch, fixture, name, error):
    # a key step's move always builds; if one does not, that is a bug
    def fail(*args):
        raise error("planted")

    monkeypatch.setattr(f"bottcert.stabilize.{name}", fail)
    phi = fixture()
    a = files("a.json", matrix_to_obj(phi.source))
    b = files("b.json", matrix_to_obj(phi.target))
    c = files("c.json", {"C": [list(row) for row in phi.C]})
    code, out = run(capsys, "stabilize", a, b, c)
    assert code == 3
    data = json.loads(out)
    assert data["tripwire"] is True
    assert data["error"].endswith("could not build a move: planted")


def test_failed_self_check_is_a_tripwire(files, capsys, monkeypatch):
    # a certificate stabilize_full has just built always verifies; if it does not, that is a bug
    monkeypatch.setattr(bottcert.cli, "verify_certificate_obj", lambda obj: bc.ReplayResult(False, "forced"))
    a = files("a.json", {"n": 2, "rows": [[], [0]]})
    c = files("c.json", {"C": [[0, 1], [1, 0]]})
    code, out = run(capsys, "stabilize", a, a, c)
    assert code == 3
    assert json.loads(out) == {
        "error": "freshly built certificate failed verification: forced",
        "tripwire": True,
    }


@pytest.mark.parametrize("out", [False, True])
def test_self_check_reads_the_shipped_text(files, capsys, tmp_path, monkeypatch, out):
    # a writer that drops a twist's v ships a certificate no reader accepts; the self-check reads the text
    real = bottcert.cli.certificate_to_obj
    dropped = []

    def drop_v(cert):
        obj = real(cert)
        twists = [mv for side in ("f_seq", "g_seq") for mv in obj[side]["moves"] if mv["kind"] == "twist"]
        del twists[0]["v"]
        dropped.append(True)
        return obj

    monkeypatch.setattr(bottcert.cli, "certificate_to_obj", drop_v)
    a = files("a.json", {"n": 3, "rows": [[], [0], [0, 2]]})
    b = files("b.json", {"n": 3, "rows": [[], [-2], [2, 2]]})
    c = files("c.json", {"C": [[-1, -1, 0], [-1, -1, 1], [-2, -1, 1]]})
    out_path = tmp_path / "cert.json"
    code, text = run(capsys, "stabilize", a, b, c, *(["--out", str(out_path)] if out else []))
    assert dropped and code == 3
    assert json.loads(text) == {
        "error": "freshly built certificate failed verification: "
        "certificate does not parse: twist move needs key 'v'",
        "tripwire": True,
    }
    assert not out_path.exists()


def test_decompose_builds_one_tower(files, capsys, monkeypatch):
    # the tower fixes levels, index map and stage count once; decompose and
    # qtrivial_partition read them instead of testing alpha^2 = 0 again, and
    # blocks_at tests no square: the tower tested each row once
    counts = {"towers": 0, "products": 0}
    decompose_tower, product_is_zero = structure.decompose_tower, structure.product_is_zero

    def counted_tower(A):
        counts["towers"] += 1
        return decompose_tower(A)

    def counted_product(*args):
        counts["products"] += 1
        return product_is_zero(*args)

    monkeypatch.setattr(structure, "decompose_tower", counted_tower)
    monkeypatch.setattr(bottcert.cli, "decompose_tower", counted_tower)
    monkeypatch.setattr(structure, "product_is_zero", counted_product)
    n = 5
    path = files("z.json", {"n": n, "rows": [[0] * i for i in range(n)]})
    code, out = run(capsys, "decompose", path)
    assert code == 0 and json.loads(out)["partition_if_qtrivial"] == [1] * n
    # one tower (one stage, n rows), whose rows are the only square tests
    assert counts == {"towers": 1, "products": n}
    T = decompose_tower(bc.make_bott_matrix(n, [[0] * i for i in range(n)]))
    counts["products"] = 0
    assert bc.qtrivial_partition(T) == (1,) * n
    assert counts["products"] == 0
