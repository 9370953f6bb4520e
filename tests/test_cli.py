import io
import json
import sys

import pytest

from gynibell import cli, upb, witness


def run_cli(argv):
    """Run in-process, capturing stdout; returns (exit_code, text)."""
    old = sys.stdout
    sys.stdout = io.StringIO()
    try:
        code = cli.run(argv)
        text = sys.stdout.getvalue()
    finally:
        sys.stdout = old
    return code, text


def test_bounds_gyni3_ns():
    code, text = run_cli(["bounds", "--gyni", "3", "--promise", "parity", "--set", "ns"])
    assert code == 0
    payload = json.loads(text)
    assert payload["value"] == "1/3"
    assert payload["meta"]["command"] == "bounds"
    assert "box" in payload


def test_bounds_gyni3_classical():
    code, text = run_cli(["bounds", "--gyni", "3", "--set", "classical"])
    assert code == 0
    payload = json.loads(text)
    assert payload["value"] == "1/4"
    assert "strategy" in payload


def test_tobl_gyni3():
    code, text = run_cli(["tobl", "--gyni", "3"])
    assert code == 0
    payload = json.loads(text)
    assert payload["value"] == "7/6"


def test_facet_gyni3():
    code, text = run_cli(["facet", "--gyni", "3"])
    assert code == 0
    payload = json.loads(text)
    assert payload["is_tight"] is True
    assert payload["affine_rank"] == 25
    assert payload["polytope_dimension"] == 26


def test_gyni_subcommand_emits_expression():
    code, text = run_cli(["gyni", "--n", "3", "--bound", "classical"])
    assert code == 0
    payload = json.loads(text)
    assert payload["classical_bound"] == "1/4"
    assert payload["orthogonality_certificate"] is True
    assert payload["value"] == "1/4"


def test_gyni_subcommand_tobl_bound():
    code, text = run_cli(["gyni", "--n", "3", "--bound", "tobl"])
    assert code == 0
    assert json.loads(text)["value"] == "7/6"


def test_upb_shifts_check_all():
    code, text = run_cli(["upb", "shifts", "--check", "all", "--emit-bell"])
    assert code == 0
    payload = json.loads(text)
    assert payload["is_upb"] is True
    assert payload["is_wupb"] is True
    assert payload["local_independence"] is True
    assert payload["bell"]["classical_bound"] == "1"


def test_upb_tiles_ambiguity_is_domain_error(capsys):
    code, _ = run_cli(["upb", "tiles", "--check", "indep"])
    assert code == 1
    assert "ambiguous" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["upb", "wupb", "all"])
def test_upb_tiles_verdicts_need_no_subsets(check):
    """TILES is a UPB: its verdicts come from the local sets alone, and the
    local independence, which needs the ambiguous subsets, is left out."""
    code, text = run_cli(["upb", "tiles", "--check", check])
    assert code == 0
    payload = json.loads(text)
    assert (payload["label"], payload["size"], payload["dims"]) == ("tiles", 5, [3, 3])
    assert payload["is_wupb"] is True
    assert payload.get("is_upb") is (None if check == "wupb" else True)
    assert "local_independence" not in payload


def _tiles_file(tmp_path) -> str:
    path = tmp_path / "tiles.json"
    path.write_text(json.dumps(upb.tiles_set().to_json()))
    return str(path)


@pytest.mark.parametrize("check", [[], ["--check", "upb"], ["--check", "wupb"]])
def test_upb_tiles_from_file_gives_the_named_verdicts(tmp_path, check):
    """TILES written by ``to_json`` and read back: its subsets are ambiguous
    there too, and the UPB verdicts are those of the named set."""
    named = run_cli(["upb", "tiles", *check])
    code, text = run_cli(["upb", _tiles_file(tmp_path), *check])
    assert (code, named[0]) == (0, 0)
    payload, expect = json.loads(text), json.loads(named[1])
    assert (payload.pop("label"), expect.pop("label")) == ("", "tiles")
    assert payload == expect


@pytest.mark.parametrize(
    "argv", [["upb", "tiles", "--check", "all", "--emit-bell"], ["witness", "--set", "tiles"]]
)
def test_tiles_calls_that_need_subsets_are_domain_errors(capsys, argv):
    code, _ = run_cli(argv)
    assert code == 1
    assert "ambiguous" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["upb", "FILE", "--check", "indep"],
        ["upb", "FILE", "--check", "all", "--emit-bell"],
        ["witness", "--set", "FILE"],
    ],
)
def test_tiles_from_file_calls_that_need_subsets_are_domain_errors(capsys, tmp_path, argv):
    path = _tiles_file(tmp_path)
    code, _ = run_cli([path if arg == "FILE" else arg for arg in argv])
    assert code == 1
    assert "ambiguous" in capsys.readouterr().err


def test_upb_wupb_reports_witness():
    code, text = run_cli(["upb", "wupb", "--check", "upb"])
    assert code == 0
    payload = json.loads(text)
    assert payload["is_upb"] is False
    assert payload["is_wupb"] is True
    assert "extension_witness" in payload


def test_witness_shifts():
    code, text = run_cli(["witness", "--set", "shifts", "--starts", "40", "--seed", "3"])
    assert code == 0
    payload = json.loads(text)
    assert 0 < payload["epsilon"] < 0.5
    assert payload["bell_value"] > 1
    assert payload["is_ppt"] is True
    assert payload["is_upb"] is True


def test_membership_roundtrip(tmp_path):
    import gynibell as gb

    ns = gb.ns_max(gb.gyni_expression(3).expression)
    box_file = tmp_path / "box.json"
    box_file.write_text(json.dumps(ns.box.to_json()))
    code, text = run_cli(["membership", "--box", str(box_file)])
    assert code == 0
    payload = json.loads(text)
    assert payload["is_local"] is False
    assert "separating" in payload

    det = gb.box_from_strategy(
        gb.binary_scenario(2),
        gb.DeterministicStrategy(((0, 1), (1, 0))),
    )
    box_file.write_text(json.dumps(det.to_json()))
    code, text = run_cli(["membership", "--box", str(box_file)])
    payload = json.loads(text)
    assert payload["is_local"] is True
    assert len(payload["weights"]) == 1


def test_promise_from_file(tmp_path):
    import gynibell as gb
    from gynibell import gyni

    q = gyni.uniform_promise(3)
    qfile = tmp_path / "promise.json"
    qfile.write_text(json.dumps(q.to_json()))
    code, text = run_cli(["bounds", "--gyni", "3", "--promise", str(qfile), "--set", "ns"])
    assert code == 0
    assert json.loads(text)["value"] == "1/4"


def test_upb_set_from_file(tmp_path):
    import gynibell as gb
    from gynibell import upb as upb_mod

    sfile = tmp_path / "set.json"
    sfile.write_text(json.dumps(upb_mod.shifts().to_json()))
    code, text = run_cli(["upb", str(sfile), "--check", "upb"])
    assert code == 0
    assert json.loads(text)["is_upb"] is True


def test_upb_empty_set_from_file(tmp_path):
    sfile = tmp_path / "empty.json"
    sfile.write_text(json.dumps({"dims": [2, 2], "vectors": []}))
    code, text = run_cli(["upb", str(sfile)])
    assert code == 0
    payload = json.loads(text)
    assert payload["size"] == 0
    assert payload["is_upb"] is False
    assert payload["extension_witness"] == [[[1.0, 0.0], [0.0, 0.0]]] * 2
    assert payload["is_wupb"] is True
    assert payload["local_independence"] is True


def test_upb_on_sets_without_subsets(capsys):
    """The qutrit Niset-Cerf sets carry no subsets: ``--check all`` reports
    the UPB verdicts alone; local independence and the Bell expression stay
    domain errors."""
    for n in ("3", "4"):
        nc = ["upb", "nc", "--n", n, "--d", "3"]
        code, text = run_cli(nc)
        assert code == 0
        payload = json.loads(text)
        assert (payload["is_upb"], payload["is_wupb"]) == (True, True)
        assert "local_independence" not in payload
        assert text == run_cli([*nc, "--check", "upb"])[1]
        for extra in (["--check", "indep"], ["--emit-bell"]):
            code, text = run_cli([*nc, *extra])
            assert (code, text) == (1, "")
            assert "error: set carries no local subset structure" in capsys.readouterr().err


def test_usage_error_exit_code():
    code, _ = run_cli(["bounds", "--set", "warp"])
    assert code == 2
    code, _ = run_cli(["frobnicate"])
    assert code == 2


def test_expression_source_is_required_and_exclusive():
    for argv in (
        ["tobl"],
        ["bounds", "--set", "ns"],
        ["facet"],
        ["bounds", "--gyni", "3", "--known", "shifts", "--set", "ns"],
        ["tobl", "--gyni", "3", "--expr", "game.json"],
    ):
        code, text = run_cli(argv)
        assert code == 2, argv
        assert text == ""


def test_seed_only_where_it_takes_effect():
    code, _ = run_cli(["bounds", "--gyni", "3", "--set", "ns", "--seed", "1"])
    assert code == 2
    code, _ = run_cli(["tobl", "--gyni", "3", "--cap", "10"])
    assert code == 2
    code, _ = run_cli(["witness", "--threads", "2"])
    assert code == 2
    code, text = run_cli(["bounds", "--gyni", "3", "--set", "classical"])
    assert code == 0
    assert set(json.loads(text)["meta"]) == {"command", "tolerance"}


def test_every_known_name_resolves():
    for name in cli._KNOWN_EXPRESSIONS:
        expression = cli._known_expression(name)
        assert expression.scenario.parties >= 3
        assert expression.classical_bound == 1


def test_facet_known_niset_cerf_qutrit_inequalities():
    for name, rank, dim in (("nc-3-3", 105, 124), ("nc-4-3", 415, 624)):
        code, text = run_cli(["facet", "--known", name])
        assert code == 0
        payload = json.loads(text)
        assert payload["is_tight"] is False
        assert (payload["affine_rank"], payload["polytope_dimension"]) == (rank, dim)
        assert payload["bound"] == "1"


def test_domain_error_exit_code(tmp_path, capsys):
    numeric = tmp_path / "numeric.json"
    numeric.write_text(json.dumps({
        "scenario": {"inputs": [2, 2], "outputs": [2, 2]},
        "mode": "numeric",
        "table": {f"{x}:0": 1.0 for x in range(4)},
    }))
    out_of_range = []
    for name, table in (
        # (0, 2) would land on row 1 of the flat table
        ("outcome", {"0:0": "1", "0:2": "1"}),
        ("input", {"0:0": "1", "1:0": "1", "5:0": "1"}),
        ("negative", {"0:0": "1", "-1:0": "1"}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "scenario": {"inputs": [2], "outputs": [2]}, "mode": "exact", "table": table,
        }))
        out_of_range.append((["membership", "--box", str(path)], "out of range"))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dims": [2, 2], "vectors": []}))
    # documents of the wrong shape: no scenario, a list, no dims
    malformed = []
    for name, document, argv in (
        ("noscenario", {"coeffs": {}}, ["bounds", "--set", "ns", "--expr"]),
        ("list", [1, 2], ["membership", "--box"]),
        ("nodims", {"vectors": []}, ["upb"]),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        malformed.append(([*argv, str(path)], f"malformed input file {path}"))
    for argv, message in (
        (["membership", "--box", str(tmp_path / "missing.json")], "missing.json"),
        (["membership", "--box", str(numeric)], "box mode 'numeric' is not supported"),
        (["witness", "--set", "nc", "--n", "3", "--d", "3", "--starts", "5"],
         "set carries no local subset structure"),
        (["witness", "--set", "nc", "--n", "4", "--d", "4"],
         "a product of its own local vectors is orthogonal to every member"),
        (["witness", "--set", "shifts", "--starts", "0"], "starts must be at least 1"),
        (["witness", "--set", "shifts", "--starts", "-3"], "starts must be at least 1"),
        (["witness", "--set", str(empty)], "set is empty"),
        *out_of_range,
        *malformed,
    ):
        code, text = run_cli(argv)
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_witness_without_subsets_fails_before_the_search(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("witness work started on a set without subsets")

    monkeypatch.setattr(witness, "projector_onto_span", never)
    monkeypatch.setattr(witness, "epsilon_min", never)
    code, text = run_cli(["witness", "--set", "nc", "--n", "3", "--d", "3"])
    assert code == 1
    assert text == ""
    assert "error: set carries no local subset structure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gyni", "--n", "3", "--bound", "classical"],
        ["bounds", "--gyni", "3", "--set", "classical"],
        ["facet", "--gyni", "3"],
        ["upb", "shifts"],
        ["witness", "--set", "shifts", "--starts", "1"],
        ["membership", "--box", "box.json"],
    ],
)
def test_cap_is_a_usage_error(argv, capsys):
    """The work limits are ``gynibell.config`` constants, not options."""
    code, text = run_cli([*argv, "--cap", "10"])
    assert code == 2
    assert text == ""
    assert "--cap" in capsys.readouterr().err


def test_box_path_is_a_directory(tmp_path, capsys):
    code, text = run_cli(["membership", "--box", str(tmp_path)])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_output_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, text = run_cli(["bounds", "--gyni", "3", "--set", "ns", "--output", str(out)])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cardinality", [2.0, True])
@pytest.mark.parametrize(
    "argv", [["bounds", "--set", "classical"], ["bounds", "--set", "ns"], ["facet"]]
)
def test_non_integer_scenario_is_a_domain_error(tmp_path, capsys, cardinality, argv):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({
        "scenario": {"inputs": [cardinality, 2], "outputs": [2, 2]},
        "coeffs": {"0:0": "1"},
    }))
    code, text = run_cli([*argv, "--expr", str(path)])
    assert code == 1
    assert text == ""
    assert "cardinalities must be integers" in capsys.readouterr().err


def test_output_file(tmp_path):
    out = tmp_path / "res.json"
    code, text = run_cli(["facet", "--gyni", "3", "--output", str(out)])
    assert code == 0
    assert text == ""
    assert json.loads(out.read_text())["is_tight"] is True


def test_byte_identical_reruns():
    for argv in (
        ["witness", "--set", "shifts", "--starts", "25", "--seed", "11"],
        ["bounds", "--gyni", "3", "--set", "ns"],
        ["tobl", "--gyni", "3"],
        ["upb", "genshifts", "--k", "2", "--check", "all", "--emit-bell"],
    ):
        _, first = run_cli(argv)
        _, second = run_cli(argv)
        assert first == second
