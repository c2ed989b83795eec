"""End-to-end checks for the batch command line."""
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import validate

from regquot import cli, pairs
from regquot.cli import main, run_job
from regquot.errors import NotCompatible, ParseError, SemanticError
from regquot.jobio import COMMANDS, canonical_json, parse_job

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
# digests in bench/golden.json do not reach them.  Rank-11 derivations and
# rank-14 cohomology were pinned from the full-table checks, before the
# checks were decided by generator words and signed word maps; rank-12
# derivations was pinned from the composite signed word maps, before the
# duality square was decided by one word per subset.
EXTERIOR_DIGESTS = {
    ("cohomology", 5): "f35e7c57cd25ea99ea4a87d7360265386d615e8f8b9ac4ed6f1cce0c051b9928",
    ("cohomology", 8): "873304d62396d48a667cdae416d9a9c832024ee790874d6b70906be5e8296d4d",
    ("derivations", 5): "5fa4e37bd7fae55c9910f055cfffc256422a8c4ee3d8ef22a78607f1ff0b35ab",
    ("derivations", 6): "2c439c95bc665de4decf2f9c2abb381d7cdf1c2badf37584c6368bd809fccef4",
    ("derivations", 7): "8c533024b782136508bece28d0d2e9200b3fa049cec9b0b5a297f61142613a27",
    ("cohomology", 10): "eeeb72e7a3a2c2dca6bf2837c23e0a00c559a5707fc28bffd73917a152055adc",
    ("derivations", 11): "21b4e52c2bbd617c3ab6cad7b2f588b896d2e6dd76127328f6578d45a67c89c1",
    ("derivations", 12): "86f82bffbac99073458036c7f2e8238799dd987c8c7723702ab10c62ecaaf4dd",
    ("cohomology", 14): "e00c8dc4eb2711e49aa4c6f3f559c81904fdc240e9bde338b78eab74fc6093f9",
}


def _exterior_report(command, rank, base="F2"):
    names = ["x%d" % i for i in range(1, rank + 1)]
    doc = {
        "command": command,
        "ring": {
            "base": base,
            "generators": [{"name": n, "degree": 2} for n in names],
        },
        "window": {"degree": 4},
        "sequence": names,
    }
    return run_job(parse_job(json.dumps(doc)))


@pytest.mark.parametrize("command, rank", sorted(EXTERIOR_DIGESTS))
def test_exterior_reports_match_pinned_digests(command, rank):
    report = _exterior_report(command, rank)
    assert report.status == 0
    text = canonical_json(report.payload())
    assert hashlib.sha256(text.encode()).hexdigest() == EXTERIOR_DIGESTS[command, rank]


@pytest.mark.parametrize("base", ["Z", "F3", "Z/4", "Z_(2)"])
@pytest.mark.parametrize("command", ["derivations", "cohomology"])
def test_exterior_reports_agree_where_signs_are_visible(command, base):
    # Over F_2, -1 = 1 and the pinned digests cannot see a sign error; here
    # every check runs with -1 != 1 (or 2 a zero divisor, over Z/4) and
    # must hold, so the report equals the F_2 one.
    report = _exterior_report(command, 5, base)
    assert report.status == 0
    if command == "derivations":
        res = report.results
        assert all(res["leibniz"]) and len(res["leibniz"]) == 5
        assert res["squares_zero"] and res["anticommute"] and res["duality_square"]
        assert res["theta_rank"] == res["theta_rank_expected"] == 32
    text = canonical_json(report.payload())
    assert hashlib.sha256(text.encode()).hexdigest() == EXTERIOR_DIGESTS[command, 5]


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


@pytest.mark.parametrize("command, window", [("tor", 20), ("decompose", 12)])
def test_integer_and_two_local_reports_are_identical(command, window):
    # The ladder's shapes have unit coefficients, so localizing at 2 keeps
    # every invariant factor (all powers of 2) and every listed degree.
    texts = []
    for base in ("Z", "Z_(2)"):
        doc = {
            "command": command,
            "ring": {
                "base": base,
                "generators": [{"name": n, "degree": 2} for n in ("x", "y", "z")],
            },
            "window": {"degree": window},
        }
        if command == "tor":
            doc.update(first=["x", "y", "z"], second=["x"], index=1)
        else:
            doc.update(ideals=[["x"], ["y"], ["z"]])
        report = run_job(parse_job(json.dumps(doc)))
        assert report.status == 0
        texts.append(canonical_json(report.payload()))
    assert texts[0] == texts[1]


# sha256 of the canonical reports of K(n) scenario jobs that the benchmark
# ladder does not run.  K(4) at p=3 and at p=7 take about 0.5 s each, once
# the regularity check decides their entries by structure; K(4) at p=7 took
# about 10 s and 1.8 GB before, with the same report.
SCENARIO_DIGESTS = {
    (2, 4): "91a1e5e99ecd500fd58f9e0216ea9ad6de3187261b29337e0fb1c30bcadef0f2",
    (3, 4): "a1d19b9bbef3a8bee8a7370870c74690d29649091f7391d2403080cde2dc825d",
    (5, 2): "55165dab9b380d809eddd518671513b037fc105dd227ffd412f4f57b5ff8521b",
    (7, 2): "7622264b376686b1e6594aa46bffa9504a2bdaa997faf5272788f1081da2014b",
    (5, 3): "b41340529f7203d687ec1630bc1982916655ffc52ef9b9296f7b4a0c2cd57aa2",
    (7, 4): "ae29303e03c3c706ef28754433dcb152e9b60af1a9207504ba156f13b1887094",
}


@pytest.mark.parametrize("p, n", sorted(SCENARIO_DIGESTS))
def test_scenario_reports_match_pinned_digests(p, n):
    report = run_job(parse_job(json.dumps({"command": "scenario", "scenario": {"p": p, "n": n}})))
    assert report.status == 0
    text = canonical_json(report.payload())
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_DIGESTS[p, n]


# sha256 of the canonical report of a rank-3 naturality job over Z: the
# pair (x, y, 4) -> (x, y, 2) induces a0 -> a0, a1 -> a1, a2 -> 0, past the
# rank-1 bundled job.  The CI module-entry step pins the same digest.
NATURALITY_DOC = {
    "command": "naturality",
    "ring": {"base": "Z", "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 2}]},
    "window": {"degree": 4},
    "source_pair": {"sequence": ["x", "y", "4"], "target": ["x", "y", "2"]},
    "target_pair": {"sequence": ["x", "y", "2"], "target": ["x", "y", "2"]},
}
NATURALITY_DIGEST = "ff65406abab0429b120be237affc6ad562435ee82c8ddbfaa64eb156be0ef4a1"


def test_naturality_report_matches_pinned_digest():
    report = run_job(parse_job(json.dumps(NATURALITY_DOC)))
    assert report.status == 0 and report.results["all_pass"]
    text = canonical_json(report.payload())
    assert hashlib.sha256(text.encode()).hexdigest() == NATURALITY_DIGEST


def test_window_override(tmp_path):
    code, report = run_file(JOBS / "k1_p2.job", tmp_path, ["--window", "8"])
    assert code == 0
    assert report["results"]["window"] == 8


def test_laurent_override_on_a_scenario_job(tmp_path):
    code, report = run_file(JOBS / "k1_p2.job", tmp_path, ["--laurent", "1"])
    assert code == 0
    assert report["results"]["laurent"] == 1 and report["results"]["window"] == 4


# Tor_1(R/(x), R/(x)) over F_2[x, u^{±1}] with |u| = 0 is x * F_2[u^{±1}]
# in degree 2: one factor 2 for each Laurent monomial u^k, |k| <= laurent.
LAURENT_TOR_DOC = {
    "command": "tor",
    "ring": {
        "base": "F2",
        "generators": [
            {"name": "x", "degree": 2},
            {"name": "u", "degree": 0, "invertible": True},
        ],
    },
    "window": {"degree": 6, "laurent": 2},
    "first": ["x"],
    "second": ["x"],
    "index": 1,
}


@pytest.mark.parametrize(
    "extra, scanned, factors",
    [
        ((), [0, 6], 5),
        (["--window", "4"], [0, 4], 5),
        (["--laurent", "1"], [0, 6], 3),
        (["--window", "2", "--laurent", "3"], [0, 2], 7),
    ],
)
def test_overrides_on_a_ring_job(tmp_path, extra, scanned, factors):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(LAURENT_TOR_DOC))
    code, report = run_file(path, tmp_path, extra)
    assert code == 0
    result = report["results"]["report"]
    assert result["scanned"] == scanned
    assert result["entries"]["2"]["factors"] == [2] * factors


@pytest.mark.parametrize(
    "doc", [LAURENT_TOR_DOC, {"command": "scenario", "scenario": {"p": 2, "n": 1}}]
)
def test_overridden_run_job_leaves_the_job_unchanged(doc):
    job = parse_job(json.dumps(doc))
    before = job.render()
    run_job(job, window=8, laurent=1)
    assert job.data == doc and job.render() == before
    assert parse_job(job.render()) == job


def test_every_command_has_one_handler():
    """jobio.COMMANDS is the one command table: run_job finds each
    command's handler as cli._cmd_<command>, with - read as _."""
    handlers = {name[len("_cmd_"):] for name in vars(cli) if name.startswith("_cmd_")}
    assert handlers == {command.replace("-", "_") for command in COMMANDS}


@pytest.mark.parametrize(
    "doc",
    [
        {
            "command": "tor",
            "ring": {"base": "Z", "generators": [{"name": "x", "degree": 2}]},
            "first": ["x^²"],
            "second": ["x"],
            "index": 1,
        },
        {"command": "multiply", "scenario": {"p": 2, "n": 1}, "factors": ["a0", "1²"]},
    ],
    ids=["tor-entry", "multiply-factor"],
)
def test_superscript_digit_is_a_parse_error(doc, tmp_path, capsys):
    """str.isdigit accepts a superscript digit that int() refuses; the
    tokenizer reads decimal digits only, so one is invalid input."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[ParseError]: ") and err.count("\n") == 1


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


def test_job_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_bytes(b"\xff\xfe" + '{"command": "tor"}'.encode("utf-16-le"))
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[IO]: ") and captured.err.count("\n") == 1
    assert "utf-8" in captured.err and captured.out == ""


def test_stdin_that_is_not_utf8_exits_2(capsys, monkeypatch):
    raw = io.BytesIO(b"\xff\xfe{}")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, "utf-8", errors="strict"))
    assert main(["-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[IO]: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,
        json.dumps(
            {
                "command": "tor",
                "ring": {"base": "Z", "generators": [{"name": "x", "degree": 2}]},
                "first": ["(" * 3000 + "x" + ")" * 3000],
                "second": ["x"],
                "index": 1,
            }
        ),
    ],
    ids=["json", "expression"],
)
def test_nesting_too_deep_exits_2(text, tmp_path, capsys):
    """A document or an expression nested past the interpreter's recursion
    limit is invalid input, not an internal error."""
    path = tmp_path / "job.json"
    path.write_text(text)
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[ParseError]: ") and "nests too deeply" in err


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

# Over Z[x], the projection to Z[x]/(x^2) does not kill (x), so the algebra
# itself is refuted (exit 1); a malformed document must exit 2 all the same.
REFUTED = {
    "ring": {"base": "Z", "generators": [{"name": "x", "degree": 2}]},
    "window": {"degree": 6},
    "sequence": ["x"],
    "target": ["x^2"],
}


@pytest.mark.parametrize(
    "doc, line",
    [
        (
            {"command": "multiply", "ring": XY_RING, "sequence": ["x"], "factors": ["a0", "a0"]},
            "  terms: []",
        ),
        ({"command": "derivations", "ring": XY_RING, "sequence": []}, "leibniz: []"),
    ],
    ids=["zero-product", "rank-0-derivations"],
)
def test_text_report_renders_empty_lists_on_their_key(doc, line, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert line in lines
    assert not any(l.strip() == "-" for l in lines)


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
        dict(REFUTED, command="multiply"),
        dict(REFUTED, command="antipode", element=5),
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
        "factors-missing-on-a-refuted-algebra",
        "element-number-on-a-refuted-algebra",
    ],
)
def test_mistyped_job_fields_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[SemanticError]: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "base, first, second, error",
    [
        # (x, 2y) is regular over Z but not over Z/4, where 2y kills 2; the
        # non-homogeneous second sequence is invalid input on both bases
        pytest.param("Z", ["x", "2*y"], ["x+y*y"], "NonHomogeneous", id="Z"),
        pytest.param("Z/4", ["x", "2*y"], ["x+y*y"], "NonHomogeneous", id="Z/4"),
        # a zero entry fails the regularity check, but is invalid input first
        pytest.param("Z", ["0"], ["x"], "SemanticError", id="zero-first"),
    ],
)
def test_tor_refuses_invalid_second_before_the_regularity_verdict(
    tmp_path, capsys, base, first, second, error
):
    doc = {
        "command": "tor",
        "ring": {"base": base, "generators": [{"name": n, "degree": 2} for n in "xy"]},
        "window": {"degree": 6},
        "first": first,
        "second": second,
        "index": 1,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 2
    assert capsys.readouterr().err.startswith("error[%s]: " % error)


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
    def broken(doc):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "_cmd_scenario", broken)
    assert main([str(JOBS / "k1_p2.job")]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error[internal]: ZeroDivisionError: division by zero\n"
    assert captured.out == ""


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    code = main([str(JOBS / "k1_p2.job"), "--json", str(tmp_path / "absent" / "r.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[IO]: ")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as under ``regquot job | head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_2_not_1(tmp_path, capsys, monkeypatch):
    # The job itself succeeds; exit 1 would read as a refutation, and the
    # interpreter's last flush of the closed stdout must not raise either.
    path = tmp_path / "job.json"
    path.write_text(json.dumps(LAURENT_TOR_DOC))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main([str(path), "--json", str(tmp_path / "r.json")])
    sys.stdout.write("nothing")
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert code == 2
    assert capsys.readouterr().err == "error[IO]: [Errno 32] Broken pipe\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["cohomology", "derivations", "check-regular"])
def test_a_command_that_reads_no_target_does_not_parse_it(tmp_path, capsys, command):
    # z is no name of Z[x], so parsing the target would exit 2
    doc = dict(REFUTED, command=command, target=["z"])
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 0
    assert capsys.readouterr().err == ""
    path.write_text(json.dumps(dict(doc, command="presentation")))
    assert main([str(path)]) == 2
    assert capsys.readouterr().err == "error[SemanticError]: unknown name 'z' in element expression\n"


# -- start-up and records ----------------------------------------------


# The modules that run on every job, and the algebra modules past them,
# each with the modules its execution executes.
RING_CORE = ["", "cli", "errors", "exprs", "ideals", "jobio", "linalg", "ring", "scalars"]
ALGEBRA = {
    "conormal": ["conormal"],
    "clifford": ["clifford", "conormal"],
    "derivations": ["clifford", "conormal", "derivations"],
    "pairs": ["clifford", "conormal", "pairs"],
    "morava": ["clifford", "conormal", "derivations", "morava"],
}

# Prints the regquot modules that have executed.  A module that
# LazyLoader registered is of a ModuleType subclass until its first use.
EXECUTED = (
    "def executed():\n"
    "    return sorted(n[8:] for n, m in sys.modules.items()\n"
    "                  if n.split('.')[0] == 'regquot' and type(m) is types.ModuleType)\n"
)


def _fresh_python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return json.loads(
        subprocess.run(
            [sys.executable, "-c", code, *args],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    )


def test_cli_import_skips_dataclasses_and_argparse_and_freezes():
    """Importing the CLI in a fresh process adds neither ``dataclasses``
    nor ``argparse`` to ``sys.modules``, and it leaves the import's objects
    in the collector's permanent generation.  A bare ``import regquot``
    freezes nothing.  Only the ring core executes; the algebra modules are
    in ``sys.modules`` all the same, and every name of ``regquot.__all__``
    resolves, by attribute and by ``from regquot import *``."""
    code = (
        "import gc, json, sys, types\n"
        + EXECUTED
        + "before = set(sys.modules)\n"
        "import regquot\n"
        "bare = gc.get_freeze_count()\n"
        "import regquot.cli\n"
        "added = set(sys.modules) - before\n"
        "ran = executed()\n"
        "registered = sorted(n[8:] for n in added if n.startswith('regquot.'))\n"
        "missing = [n for n in regquot.__all__ if getattr(regquot, n, None) is None]\n"
        "star = {}\n"
        "exec('from regquot import *', star)\n"
        "missing += sorted(set(regquot.__all__) - set(star))\n"
        "print(json.dumps([sorted(added & {'dataclasses', 'argparse'}), bare,\n"
        "                  gc.get_freeze_count(), ran, registered, missing]))\n"
    )
    added, bare, frozen, ran, registered, missing = _fresh_python(code)
    assert added == [] and bare == 0
    assert frozen > 0
    assert ran == RING_CORE
    assert registered == sorted(RING_CORE[1:] + list(ALGEBRA))
    assert missing == []


_RING = {
    "ring": {
        "base": "Z",
        "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 2}],
    },
    "window": {"degree": 4},
}

# one valid document per command, with the algebra modules its job runs
LOADING = {
    "presentation": (dict(_RING, sequence=["x", "y"], target=["x", "y"]), "clifford"),
    "cohomology": (dict(_RING, sequence=["x", "y"]), "derivations"),
    "form": (dict(_RING, sequence=["x", "y"], target=["x", "y"]), "conormal"),
    # a scenario block brings in morava whatever the command
    "multiply": ({"scenario": {"p": 2, "n": 2}, "factors": ["a0", "a1"]}, "morava"),
    "antipode": (dict(_RING, sequence=["x", "y"], element="a0*a1 + 2*a0"), "clifford"),
    "derivations": (dict(_RING, sequence=["x", "y"]), "derivations"),
    "check-regular": (dict(_RING, sequence=["x", "y"]), "conormal"),
    "tor": (dict(_RING, first=["x", "y"], second=["x"], index=1), None),
    "condition-ii": (dict(_RING, ideals=[["x"], ["y"]]), None),
    "decompose": (dict(_RING, ideals=[["x"], ["y"]]), None),
    "naturality": (
        dict(
            _RING,
            source_pair={"sequence": ["x", "4"], "target": ["x", "2"]},
            target_pair={"sequence": ["x", "2"], "target": ["x", "2"]},
        ),
        "pairs",
    ),
    "scenario": ({"scenario": {"p": 2, "n": 1}}, "morava"),
}


@pytest.mark.parametrize("command", sorted(LOADING))
def test_parse_job_refuses_each_missing_block(command):
    """Deleting any block that ``COMMANDS`` names for the command from its
    valid document, or the scenario block that stands in for a ring and
    sequence, or a pair's sequence or target, fails in ``parse_job``."""
    doc, _ = LOADING[command]
    doc = dict(doc, command=command)
    blocks = set(COMMANDS[command][1])
    if "scenario" in doc:
        blocks = blocks - {"ring", "sequence"} | {"scenario"}
    assert blocks <= doc.keys()
    mutants = [{k: v for k, v in doc.items() if k != block} for block in blocks]
    for pair in {"source_pair", "target_pair"} & blocks:
        for key in ("sequence", "target"):
            block = {k: v for k, v in doc[pair].items() if k != key}
            mutants.append(dict(doc, **{pair: block}))
    for mutant in mutants:
        with pytest.raises(SemanticError):
            parse_job(json.dumps(mutant))


def test_a_document_missing_a_block_executes_no_algebra_module():
    """``parse_job`` refuses a ``multiply`` document with no ``factors``
    before it executes ``clifford`` or any other algebra module."""
    code = (
        "import json, sys, types\n"
        + EXECUTED
        + "from regquot import cli, jobio\n"
        "from regquot.errors import SemanticError\n"
        "try:\n"
        "    jobio.parse_job(sys.argv[1])\n"
        "    error = None\n"
        "except SemanticError as err:\n"
        "    error = str(err)\n"
        "print(json.dumps([error, executed()]))\n"
    )
    error, ran = _fresh_python(code, json.dumps(dict(REFUTED, command="multiply")))
    assert error == "multiply needs factors"
    assert ran == RING_CORE


@pytest.mark.parametrize("command", sorted(LOADING))
def test_parse_job_executes_every_module_its_job_runs(command):
    """In a fresh process, ``parse_job`` executes the modules the job's
    command runs, and no other algebra module, and freezes what they built;
    ``run_job`` then executes no module at all.  Ring-only jobs never
    execute an algebra module, and their parse freezes nothing more."""
    code = (
        "import gc, json, sys, types\n"
        + EXECUTED
        + "from regquot import cli, jobio\n"
        "frozen = gc.get_freeze_count()\n"
        "job = jobio.parse_job(sys.argv[1])\n"
        "parsed = executed()\n"
        "froze = gc.get_freeze_count() > frozen\n"
        "status = cli.run_job(job).status\n"
        "print(json.dumps([parsed, froze, executed(), status]))\n"
    )
    doc, layer = LOADING[command]
    parsed, froze, ran, status = _fresh_python(code, json.dumps(dict(doc, command=command)))
    assert status == 0
    assert parsed == sorted(RING_CORE + ALGEBRA.get(layer, []))
    assert froze == (layer is not None)
    assert ran == parsed
    if layer is None:
        assert not set(ran) & set(ALGEBRA)


def test_records_keep_their_semantics():
    from regquot.clifford import AlgebraPresentation
    from regquot.conormal import ProductToken
    from regquot.ideals import HomogeneousIdeal, ModuleEntry, RegularityReport, tor
    from regquot.morava import build_scenario
    from regquot.pairs import NaturalityReport
    from regquot.ring import Generator, GradedRing
    from regquot.scalars import BaseRing

    ring = GradedRing(BaseRing.integers(), [Generator("x", 2), Generator("y", 2)], 6)
    x, y = ring.var("x"), ring.var("y")
    # each report gets its own entries table
    first, second = tor(ring, [x], [x], 0), tor(ring, [y], [y], 0)
    assert first.entries and first.entries is not second.entries
    # the validating constructors still refuse a zero entry
    with pytest.raises(SemanticError):
        ProductToken(ring.zero())
    with pytest.raises(SemanticError):
        HomogeneousIdeal(ring, [x, ring.zero()])
    assert ProductToken(x).commutative and ProductToken(x, ring.zero()).obstruction is None
    assert HomogeneousIdeal(ring, [x, y]).generators == (x, y)
    frozen = [
        Generator("x", 2),
        ModuleEntry(),
        RegularityReport(True, None, None, 6),
        AlgebraPresentation("exterior", (), (), "Lambda()"),
        NaturalityReport(()),
        build_scenario(2, 1),
        ProductToken(x),
        HomogeneousIdeal(ring, [x]),
    ]
    for record in frozen:
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
    assert repr(Generator("x", 2)) == "Generator(name='x', degree=2, invertible=False)"
