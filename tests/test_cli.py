import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import budget
from orbring import CR, OrbifoldModel, RationalPhase, cli, monomial
from support import CORPUS_NAMES, built_rows, corpus_path, gmpn_spec


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parsing and exit codes ---

def test_budget_helper_fails_on_an_exit_code_or_a_peak(capsys, tmp_path):
    # tests/budget.py runs a command in process for the CI's time and memory steps
    spec = str(corpus_path("z3-11"))
    assert budget.run(["1000", "inspect", spec]) == 0
    assert budget.run(["1", "inspect", spec]) == 1
    assert budget.run(["1000", "inspect", str(tmp_path / "nope.json")]) == 1
    assert "inspect" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _out, err = run(capsys, "inspect", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _out, err = run(capsys, "inspect", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_non_utf8_spec_is_input_error(capsys, tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe\x00")
    code, _out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert f"cannot read spec file {path}" in err


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_non_bijective_perm_rejected(capsys, tmp_path):
    path = write_spec(
        tmp_path,
        {"name": "bad", "dimension": 2, "generators": [{"perm": [0, 0], "phases": ["0", "0"]}]},
    )
    code, _out, err = run(capsys, "inspect", path)
    assert code == 2
    assert "permutation" in err


def test_phase_length_mismatch_rejected(capsys, tmp_path):
    path = write_spec(
        tmp_path,
        {"name": "bad", "dimension": 2, "generators": [{"perm": [0, 1], "phases": ["1/3"]}]},
    )
    code, _out, err = run(capsys, "inspect", path)
    assert code == 2
    assert "phases" in err


def test_unknown_key_rejected(capsys, tmp_path):
    path = write_spec(
        tmp_path,
        {"name": "bad", "dimension": 1, "generators": [], "flavor": "strawberry"},
    )
    code, _out, err = run(capsys, "inspect", path)
    assert code == 2
    assert "unknown" in err


def test_unparseable_phase_rejected(capsys, tmp_path):
    path = write_spec(
        tmp_path,
        {"name": "bad", "dimension": 1, "generators": [{"perm": [0], "phases": ["1.5"]}]},
    )
    code, _out, err = run(capsys, "inspect", path)
    assert code == 2
    assert "generator 0" in err


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    code, _out, err = run(capsys, "inspect", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_integer_with_too_many_digits_is_input_error(capsys, tmp_path):
    # the generator's perm length disagrees with the dimension, so the spec is
    # rejected even where int() has no digit limit
    path = tmp_path / "digits.json"
    path.write_text(
        '{"name": "big", "dimension": ' + "1" * 5000
        + ', "generators": [{"perm": [0], "phases": ["0"]}]}',
        encoding="utf-8",
    )
    code, _out, err = run(capsys, "inspect", str(path))
    assert code == 2
    assert err.startswith("error: ")


def test_phase_with_too_many_digits_is_input_error(capsys, tmp_path):
    path = write_spec(
        tmp_path,
        {"name": "bad", "dimension": 1, "generators": [{"perm": [0], "phases": ["1" * 5000 + "/3"]}]},
    )
    code, _out, err = run(capsys, "inspect", path)
    assert code == 2
    assert "generator 0: cannot parse a phase of 5002 characters" in err


def test_group_order_cap_exits_3(capsys, tmp_path):
    path = write_spec(
        tmp_path,
        {
            "name": "capped",
            "dimension": 2,
            "generators": [{"perm": [0, 1], "phases": ["1/3", "1/3"]}],
            "max_group_order": 2,
        },
    )
    code, _out, err = run(capsys, "verify", path)
    assert code == 3
    assert "cap" in err


def test_conductor_cap_exits_3(capsys, tmp_path):
    path = write_spec(
        tmp_path,
        {"name": "huge", "dimension": 1, "generators": [{"perm": [0], "phases": ["1/5000"]}]},
    )
    code, _out, err = run(capsys, "inspect", path)
    assert code == 3
    assert "conductor" in err


@pytest.mark.parametrize(
    "command, dimension, expected",
    [
        ("inspect", 256, 0),
        ("inspect", 257, 3),
        ("verify", 128, 0),
        ("verify", 129, 3),  # the doubled dimension 258 is over the cap
        ("cotangent", 128, 0),
        ("cotangent", 129, 3),  # it would write a spec of dimension 258
        ("inspect", 2000000, 3),
        ("ring", 2000000, 3),
        ("verify", 2000000, 3),
        ("cotangent", 2000000, 3),
    ],
)
def test_dimension_cap_exits_3(capsys, tmp_path, command, dimension, expected):
    path = write_spec(tmp_path, {"name": "wide", "dimension": dimension, "generators": []})
    code, out, err = run(capsys, command, path)
    assert code == expected
    assert ("exceeds the cap 256" in err) == (expected == 3)
    if expected == 3:
        assert out == ""


@pytest.mark.parametrize("phase", ["0", "not a phase"])
def test_dimension_cap_exits_3_before_any_phase_is_parsed(capsys, tmp_path, monkeypatch, phase):
    # the cap is checked before the generators are parsed, so a spec over it
    # exits 3 even when a generator is malformed
    dimension = 200000
    generator = {"perm": list(range(dimension)), "phases": [phase] * dimension}
    path = write_spec(tmp_path, {"name": "wide", "dimension": dimension, "generators": [generator]})
    parsed = []
    monkeypatch.setattr(RationalPhase, "parse", parsed.append)
    code, out, err = run(capsys, "inspect", path)
    assert (code, out, parsed) == (3, "", [])
    assert "dimension 200000 exceeds the cap 256" in err


def test_cotangent_over_the_dimension_cap_writes_no_file(capsys, tmp_path):
    path = write_spec(tmp_path, {"name": "wide", "dimension": 129, "generators": []})
    output = tmp_path / "doubled.json"
    code, out, err = run(capsys, "cotangent", path, "-o", str(output))
    assert (code, out) == (3, "")
    assert "dimension 258 exceeds the cap 256" in err
    assert not output.exists()


@pytest.mark.parametrize("command", ["inspect", "ring", "verify", "cotangent"])
def test_spec_name_that_utf8_cannot_encode_is_input_error(capsys, tmp_path, command):
    # "\ud800" is valid JSON for a lone surrogate, which no UTF-8 output can hold
    path = write_spec(tmp_path, {"name": "\ud800", "dimension": 1, "generators": []})
    code, out, err = run(capsys, command, path)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert "cannot be encoded as UTF-8" in err


# a spec name that ASCII cannot encode, and every output that can carry it
NON_ASCII_SPEC = {
    "name": "z\u00e93",
    "dimension": 1,
    "generators": [{"perm": [0], "phases": ["1/3"]}],
}
OUTPUTS = [
    ["inspect"],
    ["ring"],
    ["ring", "--format", "json"],
    ["cotangent"],
    ["verify"],
    ["verify", "--format", "json"],
]


# verify's timings, the one part of an output that differs from run to run
TIMINGS = re.compile(rb'\([0-9.]+ ms\)|"millis": [-+0-9.eE]+')


def main_into(encoding, argv):
    """cli.main with standard output a strict text stream of the encoding: (exit code, bytes)."""
    written = io.BytesIO()
    stream = io.TextIOWrapper(written, encoding=encoding)
    stdout, sys.stdout = sys.stdout, stream
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = stdout
    stream.flush()
    return code, TIMINGS.sub(b"", written.getvalue())


@pytest.mark.parametrize("argv", OUTPUTS, ids=" ".join)
def test_ascii_stdout_escapes_the_spec_name(tmp_path, argv):
    # each character ASCII lacks is written as its backslash escape, and the
    # exit code is the command's own; JSON is ASCII already, so it is unchanged
    path = write_spec(tmp_path, NON_ASCII_SPEC)
    code, ascii_out = main_into("ascii", [argv[0], path, *argv[1:]])
    utf8_code, utf8_out = main_into("utf-8", [argv[0], path, *argv[1:]])
    assert code == utf8_code == 0
    assert ascii_out.decode("ascii") == utf8_out.decode("utf-8").replace("\u00e9", "\\xe9")
    if "json" in argv or argv[0] == "cotangent":
        assert ascii_out == utf8_out
    if argv in (["inspect"], ["verify"]):
        assert b"z\\xe93" in ascii_out


@pytest.mark.parametrize("command", ["inspect", "ring", "verify", "cotangent"])
def test_ascii_locale_runs_every_command_on_a_non_ascii_name(tmp_path, command):
    path = write_spec(tmp_path, NON_ASCII_SPEC)
    runs = {}
    for encoding in ("ascii", "utf-8"):
        done = subprocess.run(
            [sys.executable, "-m", "orbring.cli", command, path],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING=encoding),
            capture_output=True,
            timeout=120,
        )
        out = TIMINGS.sub(b"", done.stdout).decode(encoding)
        runs[encoding] = done.returncode, out, done.stderr
    code, out, err = runs["ascii"]
    assert (code, err) == (0, b"")
    assert runs["utf-8"] == (0, out.replace("\\xe9", "\u00e9"), b"")


@pytest.mark.parametrize("command", ["inspect", "ring", "verify", "cotangent"])
@pytest.mark.parametrize("cap, expected", [(10000, 0), (10001, 3)])
def test_spec_cannot_raise_the_group_order_cap(capsys, tmp_path, command, cap, expected):
    path = write_spec(
        tmp_path,
        {
            "name": "Z_2",
            "dimension": 1,
            "generators": [{"perm": [0], "phases": ["1/2"]}],
            "max_group_order": cap,
        },
    )
    code, _out, err = run(capsys, command, path)
    assert code == expected
    assert ("group order cap 10001 exceeds the cap 10000" in err) == (expected == 3)


def test_out_of_memory_exits_3_without_a_traceback(capsys, monkeypatch):
    def exhausted(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_full_verification", exhausted)
    code, out, err = run(capsys, "verify", str(corpus_path("z3-11")))
    assert code == 3
    assert out == ""
    assert err == "resource cap exceeded: out of memory\n"


# --- inspect ---

@pytest.mark.parametrize("family", [(2, 1, 3), (3, 1, 3)], ids=lambda f: "G({},{},{})".format(*f))
def test_inspect_builds_one_row_per_class_and_decodes_no_element(family):
    model = OrbifoldModel(gmpn_spec(*family))
    cli._inspect_text(model)
    table = model.table
    assert built_rows(table) == [0]
    assert "elements" not in table.__dict__ and "index" not in table.__dict__


@pytest.mark.parametrize("dw", [False, True], ids=["geometric", "dw"])
@pytest.mark.parametrize("family", [(3, 1, 3), (2, 1, 4)], ids=lambda f: "G({},{},{})".format(*f))
def test_inspect_walks_only_class_representatives(family, dw):
    # the per-element age, fixed-dimension and subspace-id arrays stay unbuilt
    model = OrbifoldModel(gmpn_spec(*family), forget_geometry=dw)
    cli._inspect_text(model)
    assert "_element_arrays" not in model.geometry.__dict__
    assert built_rows(model.table) == [0]


@pytest.mark.parametrize("dw", [False, True], ids=["geometric", "dw"])
@pytest.mark.parametrize("family", [(3, 1, 3), (2, 1, 4)], ids=lambda f: "G({},{},{})".format(*f))
def test_inspect_walks_each_class_representative_once(family, dw, monkeypatch):
    # the age, fixed dimension and element order all come from the table's
    # kept cycles of the representative
    walked = []
    real = monomial._code_cycles

    def counted(code, n):
        walked.append(code)
        return real(code, n)

    monkeypatch.setattr(monomial, "_code_cycles", counted)
    model = OrbifoldModel(gmpn_spec(*family), forget_geometry=dw)
    cli._inspect_text(model)
    representatives = model.table.conjugacy_classes().representatives
    assert walked == [model.table.codes[r] for r in representatives]


def test_inspect_s3(capsys):
    code, out, _err = run(capsys, "inspect", str(corpus_path("s3-perm")))
    assert code == 0
    assert "group order: 6" in out
    assert "conjugacy classes: 3" in out
    assert "sigma" in out
    assert "1/2" in out  # transposition age


def test_inspect_dw_zeroes_geometry(capsys):
    code, out, _err = run(capsys, "inspect", "--dw", str(corpus_path("s3-perm")))
    assert code == 0
    assert "dimension: 0" in out
    assert "1/2" not in out


# --- ring ---

def test_ring_json_z3_cr(capsys):
    code, out, _err = run(
        capsys, "ring", str(corpus_path("z3-11")), "--theory", "cr", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["theory"] == "cr"
    assert data["basis"] == ["e", "g1", "g2"]
    assert data["degrees"] == ["0", "4/3", "8/3"]
    expected = [
        [0, 0, 0, "1"],
        [0, 1, 1, "1"],
        [0, 2, 2, "1"],
        [1, 0, 1, "1"],
        [1, 1, 2, "1"],
        [2, 0, 2, "1"],
    ]
    assert data["constants"] == expected


def test_ring_table_renders(capsys):
    code, out, _err = run(capsys, "ring", str(corpus_path("z3-11")), "--theory", "virt")
    assert code == 0
    assert "theory virt" in out
    assert "constants" in out


def test_ring_dw_class_basis_s3(capsys):
    code, out, _err = run(
        capsys,
        "ring",
        str(corpus_path("s3-perm")),
        "--dw",
        "--basis",
        "class",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == ["[e]", "[g1]", "[g2]"]
    constants = {tuple(entry[:3]): entry[3] for entry in data["constants"]}
    # center of the group ring: y_C^2 = 2 y_E + y_C for the 3-cycle class
    assert constants[(2, 2, 0)] == "2"
    assert constants[(2, 2, 2)] == "1"
    # and y_T^2 = 3 y_E + 3 y_C
    assert constants[(1, 1, 0)] == "3"
    assert constants[(1, 1, 2)] == "3"


def test_ring_dw_class_text_contains_expansion(capsys):
    code, out, _err = run(capsys, "ring", str(corpus_path("s3-perm")), "--dw", "--basis", "class")
    assert code == 0
    assert "y[g2]  * y[g2]  = 2*y[e] + y[g2]" in out


# --- cotangent ---

def test_cotangent_round_trip(capsys, tmp_path):
    out_path = tmp_path / "doubled.json"
    code, _out, _err = run(
        capsys, "cotangent", str(corpus_path("z3-11")), "-o", str(out_path)
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["name"] == "z3-11-cotangent"
    assert data["dimension"] == 4
    # the written file is a valid spec in its own right: verify must pass
    code, out, _err = run(capsys, "verify", str(out_path))
    assert code == 0
    assert "all 8 checks passed" in out


def test_cotangent_unwritable_output_is_input_error(capsys, tmp_path):
    out_path = tmp_path / "missing" / "doubled.json"
    code, _out, err = run(capsys, "cotangent", str(corpus_path("z3-11")), "-o", str(out_path))
    assert code == 2
    assert err.startswith("error: cannot write")
    assert not out_path.exists()


def test_cotangent_stdout(capsys):
    code, out, _err = run(capsys, "cotangent", str(corpus_path("z2-c1")))
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 2
    assert data["generators"][0]["phases"] == ["1/2", "1/2"]


def test_cotangent_output_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "cotangent", str(corpus_path("s3-perm")), "-o", str(a))
    run(capsys, "cotangent", str(corpus_path("s3-perm")), "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_ring_output_is_deterministic(capsys):
    _code, first, _err = run(capsys, "ring", str(corpus_path("q8")), "--format", "json")
    _code, second, _err = run(capsys, "ring", str(corpus_path("q8")), "--format", "json")
    assert first == second


# --- verify ---

def test_verify_z3_passes(capsys):
    code, out, _err = run(capsys, "verify", str(corpus_path("z3-11")))
    assert code == 0
    assert "all 8 checks passed" in out
    assert "PASS main-theorem" in out


def test_verify_json_format(capsys):
    code, out, _err = run(capsys, "verify", str(corpus_path("z2-c1")), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["spec"] == "z2-c1"
    assert all(entry["status"] == "pass" for entry in data["checks"])


def test_verify_dw_mode(capsys):
    code, out, _err = run(capsys, "verify", "--dw", str(corpus_path("s4-perm")))
    assert code == 0
    assert "all 8 checks passed" in out


def test_verify_with_a_flipped_cr_constant_exits_1(capsys, monkeypatch):
    # c[g1][g2] set to 1 in the cr algebra of z3-11 alone breaks associativity
    # (and degree additivity, so the axioms run their scans); the doubled cr
    # algebra is never built, so every other check still passes
    real = OrbifoldModel._constant_rows

    def flipped(model, theory):
        rows = real(model, theory)
        if theory != CR or model.spec.name != "z3-11":
            return rows
        row = bytearray(rows[1])
        row[2] ^= 1
        return (rows[0], bytes(row), *rows[2:])

    monkeypatch.setattr(OrbifoldModel, "_constant_rows", flipped)
    spec = str(corpus_path("z3-11"))
    code, out, err = run(capsys, "verify", spec, "--format", "json")
    assert (code, err) == (1, "")
    entries = {entry["name"]: entry for entry in json.loads(out)["checks"]}
    failed = [name for name, entry in entries.items() if entry["status"] == "fail"]
    assert failed == ["algebra-axioms-cr"]
    counterexample = entries["algebra-axioms-cr"]["counterexample"]
    assert counterexample["axiom"] == "associativity"
    assert all("counterexample" not in entries[name] for name in entries if name not in failed)
    code, out, err = run(capsys, "verify", spec)
    assert (code, err) == (1, "")
    assert "  FAIL algebra-axioms-cr (" in out
    assert f"       counterexample: {json.dumps(counterexample)}\n" in out
    assert out.endswith("\n1 of 8 checks failed\n")


def test_bad_max_group_order_rejected(capsys, tmp_path):
    path = write_spec(
        tmp_path,
        {"name": "bad", "dimension": 1, "generators": [], "max_group_order": 0},
    )
    code, _out, err = run(capsys, "inspect", path)
    assert code == 2
    assert "max_group_order" in err


def test_negative_dimension_rejected(capsys, tmp_path):
    path = write_spec(tmp_path, {"name": "bad", "dimension": -1, "generators": []})
    code, _out, err = run(capsys, "inspect", path)
    assert code == 2
    assert "dimension" in err


GENERATOR = {"perm": [0], "phases": ["0"]}


def spec_with(**changes):
    """A valid one-generator spec on C with the given keys replaced (None removes one)."""
    data = {"name": "z", "dimension": 1, "generators": [GENERATOR], **changes}
    return {key: value for key, value in data.items() if value is not None}


@pytest.mark.parametrize(
    "data, message",
    [
        (spec_with(name=""), "spec name must be a nonempty string, got ''"),
        ([GENERATOR], "spec must be a JSON object"),
        (spec_with(dimension=None), "spec is missing required key 'dimension'"),
        (spec_with(name=3), "spec name must be a string, got 3"),
        (spec_with(dimension=1.0), "dimension must be an integer, got 1.0"),
        (spec_with(generators=GENERATOR), "generators must be a list"),
        (spec_with(generators=[[0]]), "generator 0 must be an object with 'perm' and 'phases'"),
        (
            spec_with(generators=[{**GENERATOR, "sign": 1}]),
            "generator 0 has unknown keys: ['sign']",
        ),
        (
            spec_with(generators=[{"perm": [0]}]),
            "generator 0 must provide both 'perm' and 'phases'",
        ),
        (
            spec_with(generators=[{"perm": [True], "phases": ["0"]}]),
            "generator 0: perm must be a list of integers",
        ),
        (
            spec_with(generators=[{"perm": [0], "phases": "0"}]),
            "generator 0: phases must be a list of strings",
        ),
        (
            spec_with(generators=[{"perm": [0, 1], "phases": ["0"]}]),
            "generator 0: perm has length 2, expected 1",
        ),
        (
            spec_with(generators=[{"perm": [0], "phases": [0]}]),
            "generator 0: phase must be a string, got 0",
        ),
    ],
    ids=[
        "empty name",
        "not an object",
        "missing key",
        "name not a string",
        "dimension not an int",
        "generators not a list",
        "generator not an object",
        "generator with an unknown key",
        "generator without phases",
        "perm not a list of ints",
        "phases not a list",
        "wrong perm length",
        "phase not a string",
    ],
)
def test_invalid_spec_is_one_line_input_error(capsys, tmp_path, data, message):
    code, out, err = run(capsys, "verify", write_spec(tmp_path, data))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# --- one parser per process ---

SRC = Path(cli.__file__).resolve().parent.parent


def run_alone(argv):
    """One CLI call in a fresh interpreter: (exit code, stdout, stderr)."""
    done = subprocess.run(
        [sys.executable, "-m", "orbring.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_import_builds_no_parser():
    script = "import orbring.cli; print(orbring.cli._build_parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_in_process_calls_in_a_row_print_what_each_prints_alone(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal
    spec = str(corpus_path("s3-perm"))
    sequence = [
        ["ring", spec, "--dw", "--format", "json"],
        ["ring", spec, "--theory", "virt"],
        ["ring", spec, "--basis", "class", "--format", "json"],
        ["inspect", spec, "--dw"],
        ["ring", spec],
        ["ring", spec, "--theory", "bogus"],
        ["ring", spec, "--basis", "class", "--theory", "virt", "--dw"],
        ["inspect", spec],
        ["cotangent", spec],
        ["ring", spec, "--format", "json"],
    ]
    for argv in sequence:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the bogus theory
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == run_alone(argv), argv


def test_threads_share_the_parser():
    specs = [str(corpus_path(name)) for name in CORPUS_NAMES]
    argvs = [
        ["ring", specs[0], "--theory", "virt", "--format", "json"],
        ["ring", specs[1], "--basis", "class", "--dw"],
        ["verify", specs[2], "--format", "json"],
        ["verify", specs[3], "--dw"],
        ["inspect", specs[4]],
        ["inspect", specs[5], "--dw"],
        ["cotangent", specs[6], "-o", "out.json"],
        ["ring", specs[7]],
    ]
    parser = cli._build_parser()
    expected = [vars(parser.parse_args(argv)) for argv in argvs]
    assert len({json.dumps(e, default=str, sort_keys=True) for e in expected}) == len(argvs)
    results = [[] for _ in argvs]
    barrier = threading.Barrier(len(argvs))

    def parse(i):
        barrier.wait(timeout=30)
        for _ in range(200):
            results[i].append(vars(cli._build_parser().parse_args(argvs[i])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse, args=(i,)) for i in range(len(argvs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, got in enumerate(results):
        assert got == [expected[i]] * 200, argvs[i]


# --- a closed standard output ---

@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("mid_write", [False, True], ids=["closed-first", "mid-write"])
def test_closed_stdout_exits_141_without_a_traceback(mid_write, unbuffered, tmp_path):
    # closed first: the reader is gone before the command writes anything, so
    # the write or the flush inside main meets the closed pipe however small
    # the output is.  Mid-write: the G(3,1,3) sector ring is about 180 KiB of
    # JSON, more than a pipe holds, so the write is still under way when the
    # reader closes the pipe after one byte; unbuffered, the raw file takes
    # only part of that write.
    if mid_write:
        spec = tmp_path / "g313.json"
        gmpn_spec(3, 1, 3).save(spec)
    else:
        spec = corpus_path("z3-11")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbring.cli", "ring", str(spec), "--format", "json"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        if mid_write:
            assert len(proc.stdout.read(1)) == 1
    finally:
        proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.stderr.close()
    assert (code, err) == (141, b"")
