import json

import pytest

from orbring import OrbifoldModel, cli
from support import CORPUS_NAMES, built_rows, corpus_path, gmpn_spec


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parsing and exit codes ---

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


# --- inspect ---

@pytest.mark.parametrize("family", [(2, 1, 3), (3, 1, 3)], ids=lambda f: "G({},{},{})".format(*f))
def test_inspect_builds_one_row_per_class_and_decodes_no_element(family):
    model = OrbifoldModel(gmpn_spec(*family))
    cli._inspect_text(model)
    table = model.table
    assert built_rows(table) == list(table.conjugacy_classes().representatives)
    assert "elements" not in table.__dict__ and "index" not in table.__dict__


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
