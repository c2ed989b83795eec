"""End-to-end checks for the batch command line."""
import hashlib
import json
from pathlib import Path

import pytest
from jsonschema import validate

from regquot import cli, pairs
from regquot.cli import main, run_job
from regquot.errors import NotCompatible, ParseError, SemanticError
from regquot.jobio import canonical_json, parse_job

ROOT = Path(__file__).resolve().parents[1]
JOBS = ROOT / "jobs"
SCHEMA = json.loads(
    (ROOT / "src" / "regquot" / "schema" / "job_report.schema.json").read_text()
)


def run_file(path, tmp_path, extra=()):
    out = tmp_path / "report.json"
    code = main([str(path), "--json", str(out)] + list(extra))
    return code, json.loads(out.read_text())


def test_scenario_job_k1_p2(tmp_path):
    code, report = run_file(JOBS / "k1_p2.job", tmp_path)
    assert code == 0
    validate(report, SCHEMA)
    res = report["results"]
    assert res["homology"]["display"] == "T(a0)/(a0^2 - v1*1)"
    assert res["homology"]["kind"] == "clifford"
    assert res["cohomology"]["display"] == "Lambda(Q0)"
    assert res["cohomology"]["generators"] == [["Q0", -1]]
    assert res["form"]["entries"] == [["v1"]]
    assert res["window"] == 4


def test_naturality_job_exa(tmp_path):
    code, report = run_file(JOBS / "exa.job", tmp_path)
    assert code == 0
    validate(report, SCHEMA)
    res = report["results"]
    assert res["all_pass"] is True
    assert [c["name"] for c in res["checks"]] == [
        "induced-map-exists",
        "phi-square",
        "form-functoriality",
        "induced-map-multiplicative",
    ]
    assert res["images"] == ["2*a0"]


def test_naturality_refuted_without_induced_map(tmp_path, monkeypatch):
    """When the suite finds no induced map, the report refutes with the
    suite's own message; the handler does not compute the map again."""

    def no_map(source, target):
        raise NotCompatible("image of a0 violates its square relation")

    monkeypatch.setattr(pairs, "induced_algebra_map", no_map)
    code, report = run_file(JOBS / "exa.job", tmp_path)
    assert code == 1
    validate(report, SCHEMA)
    assert report == {
        "command": "naturality",
        "status": 1,
        "results": {
            "refuted_by": "NotCompatible",
            "message": "image of a0 violates its square relation",
        },
        "warnings": [],
    }


def test_json_is_canonical(tmp_path):
    _, first = run_file(JOBS / "k1_p2.job", tmp_path)
    out1 = (tmp_path / "report.json").read_text()
    _, second = run_file(JOBS / "k1_p2.job", tmp_path)
    out2 = (tmp_path / "report.json").read_text()
    assert out1 == out2
    assert first == second
    assert out1 == canonical_json(first)


def test_job_round_trip():
    text = (JOBS / "exa.job").read_text()
    job = parse_job(text)
    assert parse_job(job.render()).render() == job.render()
    assert job.command == "naturality"


def test_check_regular_refutation(tmp_path):
    doc = {
        "command": "check-regular",
        "ring": {
            "base": "F2",
            "generators": [
                {"name": "x", "degree": 2},
                {"name": "y", "degree": 2},
            ],
        },
        "window": {"degree": 8},
        "sequence": ["x", "x"],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, report = run_file(path, tmp_path)
    assert code == 1
    validate(report, SCHEMA)
    assert report["results"]["regular"] is False
    assert report["results"]["first_failure"] == 2


def test_refutation_report_through_run_job():
    job = parse_job(
        json.dumps(
            {
                "command": "cohomology",
                "ring": {
                    "base": "F2",
                    "generators": [{"name": "x", "degree": 2}],
                },
                "window": {"degree": 8},
                "sequence": ["x", "x"],
            }
        )
    )
    report = run_job(job)
    assert report.status == 1
    assert report.results["refuted_by"] == "NotRegular"


def test_multiply_in_scenario(tmp_path):
    doc = {
        "command": "multiply",
        "scenario": {"p": 2, "n": 1},
        "factors": ["a0", "a0"],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, report = run_file(path, tmp_path)
    assert code == 0
    assert report["results"]["product"]["display"] == "v1*1"
    assert report["results"]["product"]["terms"] == [{"word": [], "coeff": "v1"}]


def test_antipode_command(tmp_path):
    doc = {
        "command": "antipode",
        "scenario": {"p": 3, "n": 2},
        "element": "a0*a1",
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, report = run_file(path, tmp_path)
    assert code == 0
    assert report["results"]["antipode"]["display"] == "a0*a1"


def test_tor_command_counts(tmp_path):
    doc = {
        "command": "tor",
        "ring": {
            "base": "F2",
            "generators": [
                {"name": "x", "degree": 2},
                {"name": "y", "degree": 2},
            ],
        },
        "window": {"degree": 8},
        "first": ["x"],
        "second": ["x"],
        "index": 1,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, report = run_file(path, tmp_path)
    assert code == 0
    entries = report["results"]["report"]["entries"]
    assert entries["2"]["factors"] == [2]


def test_decompose_command(tmp_path):
    doc = {
        "command": "decompose",
        "ring": {
            "base": "F2",
            "generators": [
                {"name": "x", "degree": 2},
                {"name": "y", "degree": 2},
            ],
        },
        "window": {"degree": 6},
        "ideals": [["x"], ["y"]],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, report = run_file(path, tmp_path)
    assert code == 0
    assert report["results"]["verified"] is True
    deg2 = report["results"]["degrees"]["2"]
    assert deg2["module"]["factors"] == [2, 2]
    assert [s["factors"] for s in deg2["summands"]] == [[2], [2]]


def test_derivations_command(tmp_path):
    doc = {"command": "derivations", "scenario": {"p": 2, "n": 2}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, report = run_file(path, tmp_path)
    assert code == 0
    res = report["results"]
    assert res["theta_rank"] == 4
    assert res["duality_square"] is True


# sha256 of the canonical reports of F_2 exterior jobs above the ranks of
# the benchmark ladder (rank-6 cohomology, rank-4 derivations), whose
# digests in bench/golden.json do not reach them.
EXTERIOR_DIGESTS = {
    ("cohomology", 8): "873304d62396d48a667cdae416d9a9c832024ee790874d6b70906be5e8296d4d",
    ("derivations", 5): "5fa4e37bd7fae55c9910f055cfffc256422a8c4ee3d8ef22a78607f1ff0b35ab",
    ("derivations", 6): "2c439c95bc665de4decf2f9c2abb381d7cdf1c2badf37584c6368bd809fccef4",
}


@pytest.mark.parametrize("command, rank", sorted(EXTERIOR_DIGESTS))
def test_exterior_reports_match_pinned_digests(command, rank):
    names = ["x%d" % i for i in range(1, rank + 1)]
    doc = {
        "command": command,
        "ring": {
            "base": "F2",
            "generators": [{"name": n, "degree": 2} for n in names],
        },
        "window": {"degree": 4},
        "sequence": names,
    }
    report = run_job(parse_job(json.dumps(doc)))
    assert report.status == 0
    text = canonical_json(report.payload())
    assert hashlib.sha256(text.encode()).hexdigest() == EXTERIOR_DIGESTS[command, rank]


# sha256 of the canonical reports of the ladder's tor (window 12) and
# decompose (window 10) shapes over Z/m, which no benchmark workload runs.
MODULAR_DIGESTS = {
    ("tor", "Z/4"): "2998bc8b86d5a846f00a52f84c88266dfba8af993a92678e531358b5eb11f9d3",
    ("tor", "Z/6"): "5b37073fb7d95f231ce1662e9367f5d2032160618e7d356d0180d16dc770db6f",
    ("decompose", "Z/4"): "89704febf0cc3d4a5825e3e3b9bf87eeefde7561ef3c5e8f3f8886109e076edb",
    ("decompose", "Z/6"): "a2e5508b5ff516549c590c169ae2c34171dfdb0986ee293406349e93051bb425",
}


@pytest.mark.parametrize("command, base", sorted(MODULAR_DIGESTS))
def test_modular_reports_match_pinned_digests(command, base):
    doc = {
        "command": command,
        "ring": {
            "base": base,
            "generators": [{"name": n, "degree": 2} for n in ("x", "y", "z")],
        },
    }
    if command == "tor":
        doc.update(window={"degree": 12}, first=["x", "y", "z"], second=["x"], index=1)
    else:
        doc.update(window={"degree": 10}, ideals=[["x"], ["y"], ["z"]])
    report = run_job(parse_job(json.dumps(doc)))
    assert report.status == 0
    text = canonical_json(report.payload())
    assert hashlib.sha256(text.encode()).hexdigest() == MODULAR_DIGESTS[command, base]


def test_window_override(tmp_path):
    code, report = run_file(JOBS / "k1_p2.job", tmp_path, ["--window", "8"])
    assert code == 0
    assert report["results"]["window"] == 8


def test_unknown_command_exits_2(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text('{"command": "nonsense"}')
    assert main([str(path)]) == 2
    assert "SemanticError" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text('{"command": "tor"')
    assert main([str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "absent.json")]) == 2
    assert "error[IO]" in capsys.readouterr().err


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_job("[1, 2]")
    with pytest.raises(SemanticError):
        parse_job('{"command": "tor", "window": {"degree": "big"}}')


def test_text_report_has_timing(tmp_path, capsys):
    code = main([str(JOBS / "k1_p2.job")])
    assert code == 0
    out = capsys.readouterr().out
    assert "elapsed:" in out
    assert out.startswith("command: scenario")


def test_timing_never_in_json(tmp_path):
    _, report = run_file(JOBS / "k1_p2.job", tmp_path)
    assert "elapsed" not in json.dumps(report)


EXA = json.loads((JOBS / "exa.job").read_text())


def ring_with_v(invertible):
    return {
        "base": "F2",
        "generators": [
            {"name": "x", "degree": 2},
            {"name": "v", "degree": 2, "invertible": invertible},
        ],
    }


XY_RING = {
    "base": "F2",
    "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 2}],
}


@pytest.mark.parametrize(
    "doc",
    [
        {"command": "tor", "ring": XY_RING, "first": 5, "second": ["x"], "index": 1},
        {"command": "multiply", "scenario": {"p": 2, "n": 1}, "factors": [3]},
        {"command": "decompose", "ring": XY_RING, "ideals": [["x"], "x"]},
        {
            "command": "check-regular",
            "ring": XY_RING,
            "window": {"degree": True},
            "sequence": ["x"],
        },
        {"command": "tor", "ring": XY_RING, "first": ["x"], "second": ["x"], "index": True},
        {"command": "scenario", "scenario": {"p": 2, "n": True}},
        {"command": "check-regular", "ring": XY_RING, "sequence": [{"element": 2}]},
        {"command": "scenario"},
        {"command": "scenario", "scenario": None},
        {"command": "tor", "ring": {"base": "F2", "generators": 0}},
        {"command": "tor", "ring": {"base": "F2", "generators": None}},
        {"command": "tor", "ring": {"base": "F2", "generators": [{"name": False, "degree": 2}]}},
        {"command": "tor", "ring": {"base": "F2", "generators": [{"name": None, "degree": 2}]}},
        {"command": "check-regular", "ring": ring_with_v("false"), "sequence": ["x"]},
        {"command": "check-regular", "ring": ring_with_v(1), "sequence": ["x"]},
        dict(EXA, source_pair=dict(EXA["source_pair"], multiplicative="yes")),
        {
            "command": "multiply",
            "ring": XY_RING,
            "sequence": [{"element": "0*x", "obstruction": "x^3"}],
            "factors": ["a0"],
        },
    ],
    ids=[
        "first-not-a-list",
        "factor-not-a-string",
        "ideal-not-a-list",
        "window-degree-bool",
        "index-bool",
        "scenario-n-bool",
        "sequence-element-not-a-string",
        "scenario-block-missing",
        "scenario-block-null",
        "generators-zero",
        "generators-null",
        "generator-name-false",
        "generator-name-null",
        "invertible-string",
        "invertible-number",
        "multiplicative-string",
        "zero-element-with-obstruction",
    ],
)
def test_mistyped_job_fields_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[SemanticError]: ")
    assert err.count("\n") == 1


_DELETE = object()
FUZZ_VALUES = (None, 0, 1, -1, 2, 3, True, 2.5, "", "x", "Z", "scenario", [], ["x"], [1], {}, {"p": 2})


def _field_paths(value, path=()):
    """Paths of every field and list entry below ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, sub in items:
        yield path + (key,)
        yield from _field_paths(sub, path + (key,))


def test_mutated_bundled_jobs_never_exit_internal(tmp_path, capsys):
    """Every single-field replacement or deletion in the bundled jobs gives a
    report or a structured error: exit 0, 1 or 2, never 3."""
    path = tmp_path / "job.json"
    tried = 0
    for name in ("exa.job", "k1_p2.job"):
        doc = json.loads((JOBS / name).read_text())
        for field in _field_paths(doc):
            for value in FUZZ_VALUES + (_DELETE,):
                mutated = json.loads(json.dumps(doc))
                owner = mutated
                for key in field[:-1]:
                    owner = owner[key]
                if value is _DELETE:
                    del owner[field[-1]]
                else:
                    owner[field[-1]] = value
                path.write_text(json.dumps(mutated))
                code = main([str(path)])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (name, field, value, err)
                if code == 2:
                    assert err.startswith("error[") and err.count("\n") == 1, err
                tried += 1
    assert tried >= 200


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(doc, window, laurent):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(cli._HANDLERS, "scenario", broken)
    assert main([str(JOBS / "k1_p2.job")]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error[internal]: ZeroDivisionError: division by zero\n"
    assert captured.out == ""


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    code = main([str(JOBS / "k1_p2.job"), "--json", str(tmp_path / "absent" / "r.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[IO]: ")
