"""Command line interface: schemas, determinism, exit codes."""

import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bottcert as bc
import bottcert.cli
from bottcert import structure
from bottcert.cli import COMMANDS, main
from bottcert.serialize import dumps_canonical, matrix_to_obj, verify_certificate_obj
from helpers import counting
from test_stabilize import bend, even_case_fixture, odd_step_fixture, overstated_stability


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


def test_iso_check_two_stage_tower(files, capsys):
    # A and B have levels 1, 1, 2, so the extraction compares levels across two stages
    a = files("a.json", {"n": 3, "rows": [[], [0], [1, -1]]})
    b = files("b.json", {"n": 3, "rows": [[], [0], [1, 1]]})
    c = files("c.json", {"C": [[0, 1, 0], [-1, 0, 0], [1, 1, -1]]})
    code, out = run(capsys, "iso-check", a, b, c)
    assert code == 0
    assert json.loads(out) == {"valid": True, "max_stable": 3, "sigma": [2, 1, 3], "eps_times_2": [2, -2, -2]}


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
    # --bound reads a decimal integer as the readers do: int() also takes "1_0", " 2 ", "+2" and "٣"
    a = files("z.json", {"n": 2, "rows": [[], [0]]})
    for bound in ["x", "1_0", " 2 ", "+2", "٣"]:
        code = main(["iso-search", a, a, "--bound", bound])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"invalid int value: {bound!r}" in captured.err


def test_iso_search_huge_bound(files, capsys):
    # the bound filters rows; it does not set how many candidates are tried
    rows = [[], [2], [0, 1]]
    a = files("a.json", {"n": 3, "rows": rows})
    code, out = run(capsys, "iso-search", a, a, "--bound", "1000000000")
    assert code == 0
    data = json.loads(out)
    A = bc.BottMatrix(3, rows)
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


def test_duplicate_key_is_a_domain_error(files, capsys, tmp_path):
    # json keeps the last of two equal keys, so a reader of the text would see another A than the verifier
    a = files("a.json", {"n": 2, "rows": [[], [2]]})
    c = files("c.json", {"C": [[1, 0], [0, 1]]})
    code, text = run(capsys, "stabilize", a, a, c)
    assert code == 0 and text.startswith('{\n  "A": ')
    doubled = text.replace('{\n  "A": ', '{\n  "A": {"n": 2, "rows": [[], [5]]},\n  "A": ', 1)
    assert verify_certificate_obj(json.loads(doubled)).ok
    path = tmp_path / "doubled.json"
    path.write_text(doubled, encoding="utf-8")
    assert run(capsys, "verify-cert", str(path)) == (1, dumps_canonical({"error": "duplicate key 'A'"}))
    path.write_text('{"n": 2, "rows": [[], [0]], "n": 3}', encoding="utf-8")
    assert run(capsys, "ring", str(path)) == (1, dumps_canonical({"error": "duplicate key 'n'"}))


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


def test_iso_search_big_bound_is_a_decimal_string(files, capsys):
    # the writer applies the 2^53 rule to every plain int, the bound included
    a = files("f0.json", {"n": 2, "rows": [[], [0]]})
    b = files("f1.json", {"n": 2, "rows": [[], [1]]})
    code, out = run(capsys, "iso-search", a, b, "--bound", str(2**60))
    assert code == 0
    assert out == '{\n  "bound": "1152921504606846976",\n  "isos": []\n}\n'


def test_iso_search_memory_is_a_few_times_its_output(files, monkeypatch):
    # the payload holds the hits' own rows; 3840 hits at n = 5 (5.5 times the
    # output when each entry was copied into new lists of lists)
    n = 5
    z = files("z.json", {"n": n, "rows": [[0] * i for i in range(n)]})
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["iso-search", z, z, "--bound", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.getvalue()
    assert code == 0 and len(json.loads(text)["isos"]) == 3840
    assert peak < 4.5 * len(text), (peak, len(text))


def test_recursion_limit_is_a_domain_error(files):
    # the search recurses once per row; running out of depth is exit 1 with a payload, not a traceback
    n = 150
    ones = files("ones.json", {"n": n, "rows": [[1] * i for i in range(n)]})
    src = str(Path(bc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; from bottcert.cli import main; sys.setrecursionlimit(120); sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, "iso-search", ones, ones, "--bound", "1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(json.loads(proc.stdout)) == ["error"]


def test_memory_error_is_a_domain_error(files, capsys, monkeypatch):
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(bottcert.cli, "search_isos", exhaust)
    z = files("z.json", {"n": 2, "rows": [[], [0]]})
    code = main(["iso-search", z, z])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": "MemoryError"}
    assert captured.err == ""


def test_byte_determinism(files, capsys):
    path = files("a.json", {"n": 4, "rows": [[], [1], [0, 2], [1, 1, 0]]})
    outs = set()
    for _ in range(2):
        code, out = run(capsys, "decompose", path)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_domain_error_exit_code(files, capsys):
    bad = files("bad.json", {"n": 2, "rows": [[], [1, 2]]})
    code, out = run(capsys, "ring", bad)
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("case", ["missing", "deep", "duplicate"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_unreadable_file_is_a_domain_error(capsys, tmp_path, command, case):
    # every command reads its files through the one loader: exit 1 with a payload, no traceback
    path = tmp_path / f"{case}.json"
    if case == "deep":  # deeper than the parser's recursion limit
        path.write_text("[" * 100_000, encoding="utf-8")
    elif case == "duplicate":
        path.write_text('{"n": 2, "rows": [[], [0]], "n": 3}', encoding="utf-8")
    code = main([command] + [str(path)] * len(COMMANDS[command][1]))
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    payload = json.loads(captured.out)
    if case == "missing":
        assert list(payload) == ["error"] and str(path) in payload["error"]
    else:
        error = f"{path}: JSON nested too deeply to parse" if case == "deep" else "duplicate key 'n'"
        assert payload == {"error": error}


@pytest.mark.parametrize("case", ["malformed", "not UTF-8", "past the digit limit"])
def test_json_errors_are_shape_errors(capsys, tmp_path, case):
    # the loader turns json's errors into ShapeErrors with json's own text: bad data where it arises
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if case == "past the digit limit" and not limit:
        pytest.skip("no digit limit in this interpreter")
    path = tmp_path / "bad.json"
    path.write_bytes({"malformed": b'{"n": 2,', "not UTF-8": b'{"n": 2, "rows": [[], [0]]}\xff',
                      "past the digit limit": b"[" + b"9" * (limit + 1) + b"]"}[case])
    with pytest.raises(ValueError) as info, open(path, encoding="utf-8") as fh:
        json.load(fh)
    with pytest.raises(bc.ShapeError) as loaded:
        bottcert.cli._load(str(path))
    assert str(loaded.value) == str(info.value)
    code, out = run(capsys, "ring", str(path))
    assert (code, json.loads(out)) == (1, {"error": str(info.value)})


def test_readme_lists_the_commands():
    # README's CLI block shows each command of the table once, with its files and its options
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("bottcert ")]
    assert sorted(line.split()[1] for line in lines) == sorted(COMMANDS)
    for line in lines:
        _, files, options, _ = COMMANDS[line.split()[1]]
        outside_brackets = re.sub(r"\[[^]]*\]", "", line).split()
        assert sum(word.endswith(".json") for word in outside_brackets) == len(files), line
        assert re.findall(r"\[(--[\w-]+)", line) == list(options), line


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
    assert bc.BottMatrix(2, [[], [big]]).a(2, 1) == big
    assert json.loads(dumps_canonical(matrix_to_obj(bc.BottMatrix(2, [[], [big]]))))[
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
        raise bc.TripwireError("forced for the test")

    monkeypatch.setattr(bottcert.cli, "stabilize_full", fire)
    a = files("a.json", {"n": 2, "rows": [[], [0]]})
    c = files("c.json", {"C": [[0, 1], [1, 0]]})
    code, out = run(capsys, "stabilize", a, a, c)
    assert code == 3
    assert json.loads(out) == {"error": "forced for the test", "tripwire": True}


# one function of each layer a command reaches: the sum of rows, the degree-4 product, the column fold, the
# tower and the integer rule
PLANTS = ["ring.combine", "ring.product_is_zero", "moves._then", "structure.decompose_tower", "serialize.decode_int"]


@pytest.mark.parametrize("error", [ValueError, TypeError, KeyError, IndexError, AttributeError, ZeroDivisionError],
                         ids=lambda error: error.__name__)
def test_library_bug_is_a_tripwire(files, capsys, tmp_path, monkeypatch, error):
    # bad data is a BottError where it arises, so any other exception is a bug: every command that reaches a
    # planted one reports it as a tripwire, and every other command runs as before
    a = files("a.json", {"n": 3, "rows": [[], [0], [1, 0]]})
    b = files("b.json", {"n": 3, "rows": [[], [1], [0, 0]]})
    c = files("c.json", {"C": [[-1, 2, 0], [0, 0, 1], [0, 1, 0]]})
    out_path = str(tmp_path / "cert.json")
    argvs = {"ring": [a], "sqzero": [a], "decompose": [a], "iso-check": [a, b, c], "iso-search": [a, b],
             "stabilize": [a, b, c, "--out", out_path], "verify-cert": [out_path]}
    assert list(argvs) == list(COMMANDS)
    clean = {command: run(capsys, command, *argv) for command, argv in argvs.items()}
    assert {code for code, _ in clean.values()} == {0}
    modules = [m for name, m in sys.modules.items() if name == "bottcert" or name.startswith("bottcert.")]
    reached = {}
    for plant in PLANTS:
        module, _, name = plant.partition(".")
        real = getattr(sys.modules[f"bottcert.{module}"], name)

        def broken(*args):
            reached[plant] = reached.get(plant, set()) | {command}
            raise error("planted bug")

        with monkeypatch.context() as m:
            for mod in modules:  # each module that imported it by name, too
                if getattr(mod, name, None) is real:
                    m.setattr(mod, name, broken)
            for command, argv in argvs.items():
                result = run(capsys, command, *argv)
                if command in reached.get(plant, ()):
                    assert (result[0], json.loads(result[1])) == (3, {"error": str(error("planted bug")),
                                                                      "tripwire": True}), (plant, command)
                else:
                    assert result == clean[command], (plant, command)
                assert capsys.readouterr().err == ""
    assert sorted(reached) == sorted(PLANTS)
    assert {"stabilize", "verify-cert"} <= reached["moves._then"]


def test_closed_stdout_is_quiet(files):
    # the reader of stdout takes 5 bytes of about 1.4 MB and closes the pipe: exit 1, and neither the write nor
    # the flush at shutdown prints a traceback
    n = 5
    z = files("z.json", {"n": n, "rows": [[0] * i for i in range(n)]})
    src = str(Path(bc.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "bottcert.cli", "iso-search", z, z, "--bound", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.read(5) == b'{\n  "'
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err.decode()) == (1, "")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_blocked_switch_at_an_entry_past_the_digit_limit(files, capsys):
    # g's twist (2, c y_1), c = 10^4000, adds c v to row 3, whose entry (3,1) becomes c^2 (8001 digits); the
    # switch at 1 moves it to (3,2), where it blocks the switch at 2, and the diagnostic prints its bit length
    c = 10**4000
    M = {"n": 3, "rows": [[], [2 * c], [0, c]]}
    identity = {"C": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    moves = [{"kind": "twist", "j": 2, "v": [c, 0, 0]}, {"kind": "switch", "j": 1}, {"kind": "switch", "j": 2}]
    cert = files("cert.json", {"schema": "bott-stabilization-cert/1", "A": M, "B": M, "phi": identity,
                               "f_seq": {"start": M, "moves": []}, "g_seq": {"start": M, "moves": moves},
                               "phi_prime": identity, "k_final": 3})
    code, out = run(capsys, "verify-cert", cert)
    payload = json.loads(out)
    assert code == 0 and payload["valid"] is False
    assert re.fullmatch(r"certificate does not parse: entry \(3,2\) is .+, must be 0", payload["diagnostic"])
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 8001:
        assert f"is <int of {(c * c).bit_length()} bits>, must" in payload["diagnostic"]


def test_blocked_well_ordering_is_a_tripwire(files, capsys, monkeypatch):
    def fire(A):
        raise bc.TripwireError("forced for the test")

    monkeypatch.setattr(bottcert.cli, "decompose_tower", fire)
    a = files("a.json", {"n": 2, "rows": [[], [0]]})
    code, out = run(capsys, "decompose", a)
    assert code == 3
    assert json.loads(out) == {"error": "forced for the test", "tripwire": True}


def test_failed_extraction_is_a_tripwire(files, capsys, monkeypatch):
    # a validated isomorphism always permutes the classes 2x_i - alpha_i; if it does not, that is a bug
    def fire(phi):
        raise bc.TripwireError("generator 1: forced")

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

    bend(monkeypatch, **{name: fail})
    phi = fixture()
    a = files("a.json", matrix_to_obj(phi.source))
    b = files("b.json", matrix_to_obj(phi.target))
    c = files("c.json", {"C": [list(row) for row in phi.C]})
    code, out = run(capsys, "stabilize", a, b, c)
    assert code == 3
    data = json.loads(out)
    assert data["tripwire"] is True
    assert data["error"].endswith("could not build a move: planted")


def test_overstated_stability_is_a_tripwire(files, capsys, monkeypatch):
    # a round that starts from a map that is not k-stable is a bug, not a domain error
    phi = overstated_stability(monkeypatch)
    a = files("a.json", matrix_to_obj(phi.source))
    b = files("b.json", matrix_to_obj(phi.target))
    c = files("c.json", {"C": [list(row) for row in phi.C]})
    code, out = run(capsys, "stabilize", a, b, c)
    assert code == 3
    error = "certificate construction failed: isomorphism is not 1-stable"
    assert json.loads(out) == {"error": error, "tripwire": True}


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


def test_failed_construction_is_a_tripwire(files, capsys, monkeypatch):
    # the source tower takes one switch, which stabilize_full inverts; a domain error there blames no input
    def fail(*args):
        raise bc.SwitchBlocked("planted")

    monkeypatch.setattr("bottcert.stabilize.invert_move", fail)
    a = files("a.json", {"n": 4, "rows": [[], [1], [1, 1], [0, 0, 0]]})
    c = files("c.json", {"C": [[int(i == j) for j in range(4)] for i in range(4)]})
    code, out = run(capsys, "stabilize", a, a, c)
    assert code == 3
    assert json.loads(out) == {"error": "certificate construction failed: planted", "tripwire": True}


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


@pytest.mark.parametrize("plant", ["repeated key", "truncated"])
def test_self_check_parses_with_the_strict_reader(files, capsys, tmp_path, monkeypatch, plant):
    # a writer that repeats "k_final" ships a text verify-cert rejects, though json.loads keeps the last value;
    # the self-check parses the text with verify-cert's own reader, so that is a tripwire, as a cut text is
    real = bottcert.cli.dumps_canonical
    shipped = []

    def planted(payload):
        text = real(payload)
        if "schema" in payload:
            repeated = text.replace('\n  "k_final": ', '\n  "k_final": 0,\n  "k_final": ', 1)
            text = text[: len(text) // 2] if plant == "truncated" else repeated
            shipped.append(text)
        return text

    monkeypatch.setattr(bottcert.cli, "dumps_canonical", planted)
    a = files("a.json", {"n": 2, "rows": [[], [0]]})
    c = files("c.json", {"C": [[0, 1], [1, 0]]})
    out_path = tmp_path / "cert.json"
    code, out = run(capsys, "stabilize", a, a, c, "--out", str(out_path))
    if plant == "truncated":
        with pytest.raises(ValueError) as info:
            json.loads(shipped[0])
        error = str(info.value)
    else:
        assert verify_certificate_obj(json.loads(shipped[0])).ok
        error = "duplicate key 'k_final'"
    assert (code, json.loads(out)) == (3, {
        "error": f"freshly built certificate failed verification: certificate does not parse: {error}",
        "tripwire": True,
    })
    assert not out_path.exists()


def test_decompose_builds_one_tower(files, capsys, monkeypatch):
    # the tower fixes levels, index map and stage count once; decompose and
    # qtrivial_partition read them instead of testing alpha^2 = 0 again, and
    # blocks_at tests no square: the tower tested each row once
    counts = {"towers": 0, "products": 0}
    counted_tower = counting(counts, "towers", structure.decompose_tower)
    counted_product = counting(counts, "products", structure.product_is_zero)
    monkeypatch.setattr(structure, "decompose_tower", counted_tower)
    monkeypatch.setattr(bottcert.cli, "decompose_tower", counted_tower)
    monkeypatch.setattr(structure, "product_is_zero", counted_product)
    n = 5
    path = files("z.json", {"n": n, "rows": [[0] * i for i in range(n)]})
    code, out = run(capsys, "decompose", path)
    assert code == 0 and json.loads(out)["partition_if_qtrivial"] == [1] * n
    # one tower (one stage, n rows), whose rows are the only square tests
    assert counts == {"towers": 1, "products": n}
    T = bc.decompose_tower(bc.BottMatrix(n, [[0] * i for i in range(n)]))
    counts["products"] = 0
    assert bc.qtrivial_partition(T) == (1,) * n
    assert counts["products"] == 0
