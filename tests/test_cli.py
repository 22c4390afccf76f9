"""CLI behaviour: exit codes, output formats, determinism, schema."""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import lrcone
from lrcone import cli, hilbert
from lrcone.cli import main
from lrcone.rays import enumerate_rays


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    text = resources.files("lrcone").joinpath("output.schema.json").read_text()
    return json.loads(text)


def test_horn_text(capsys):
    code, out, _ = run(capsys, "horn", "--r", "2", "--d", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_horn_r1_is_an_error(capsys):
    code, _, err = run(capsys, "horn", "--r", "1", "--d", "1")
    assert code == 2
    assert "error" in err


def test_member_command(capsys):
    code, out, _ = run(capsys, "member", "--point", "1,1;1,1;2,1",
                       "--kind", "eqlr")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "member", "--point", "1,1;1,1;2,1", "--kind", "lr")
    assert code == 0 and out.strip() == "false"
    code, _, err = run(capsys, "member", "--point", "1,1;;2,1", "--kind", "lr")
    assert code == 2 and "error" in err


def test_rays_json_schema(capsys):
    code, out, _ = run(capsys, "rays", "--r", "2", "--kind", "eqlr",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema())
    assert payload["result"]["count"] == 10


def test_member_json_schema(capsys):
    code, out, _ = run(capsys, "member", "--point", "1;0;1", "--kind", "lr",
                       "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema())
    assert payload["result"]["member"] is True


def test_hilbert_json_schema(capsys):
    code, out, _ = run(capsys, "hilbert", "--r", "2", "--bound", "3",
                       "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema())
    assert payload["result"]["count"] == 10


def test_facet_worked_example(capsys):
    code, out, _ = run(capsys, "facet", "--r", "3", "--I", "{2};{2}",
                       "--K", "{3}")
    assert code == 0
    assert "(1,2) -> 1,1,0;1,0,0;1,1,1" in out
    assert "# zero images: 3" in out
    assert "2,1,1;2,1,1;3,2,2" in out


def test_facet_bad_subset(capsys):
    code, _, err = run(capsys, "facet", "--r", "3", "--I", "{2}", "--K", "{3}")
    assert code == 2 and "error" in err


def test_byte_determinism(capsys):
    a = run(capsys, "rays", "--r", "3", "--format", "json")
    b = run(capsys, "rays", "--r", "3", "--format", "json")
    assert a == b


def test_tables_ray_counts(capsys):
    code, out, _ = run(capsys, "tables", "--which", "ray-counts", "--max-r", "3")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[0] == ["r", "LR", "EqLR"]
    assert rows[1:] == [["1", "2", "3"], ["2", "5", "10"], ["3", "10", "27"]]


def test_tables_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--which", "nope"])
    assert exc.value.code == 2 and "error" in capsys.readouterr().err


def test_rays_ceiling_requires_extended(capsys):
    code, _, err = run(capsys, "rays", "--r", "7")
    assert code == 2
    assert "--extended" in err


FACET = ["--I", "{1};{1}", "--K", "{1}"]
ROW12 = ",".join(["1"] * 12)
ROW20K = ",".join(["0"] * 20000)


@pytest.mark.parametrize("argv, suggests_extended", [
    (["rays", "--r", "8"], True),
    (["rays", "--r", "10", "--extended"], False),
    # r = 9 is over the --extended ceiling too: unmeasured, and projected
    # to need about 14 GB
    (["rays", "--r", "9", "--extended"], False),
    (["facet", "--r", "8", *FACET], True),  # enumerates the rays at r-d = 7
    (["facet", "--r", "11", *FACET, "--extended"], False),
    (["hilbert", "--r", "6", "--bound", "1"], True),
    (["hilbert", "--r", "8", "--bound", "1", "--extended"], False),
    # within the r ceiling, over the Hilbert byte budget (about 50 GB)
    (["hilbert", "--r", "6", "--bound", "6", "--extended"], False),
    (["tables", "--which", "ray-counts", "--max-r", "7"], True),
    (["tables", "--which", "ray-counts", "--max-r", "10", "--extended"], False),
    # hilbert-counts runs a Hilbert search per row: its r = 6 row needs
    # B = 5, over the byte budget, so no flag lifts its r ceiling of 5
    (["tables", "--which", "hilbert-counts", "--max-r", "6"], False),
    (["tables", "--which", "hilbert-counts", "--max-r", "6", "--extended"], False),
    (["tables", "--which", "hilbert-counts", "--max-r", "8", "--extended"], False),
    # s ceilings: 5 by default, 8 with --extended
    (["rays", "--r", "2", "--s", "12"], False),
    (["rays", "--r", "2", "--s", "6"], True),
    (["rays", "--r", "2", "--s", "9", "--extended"], False),
    (["facet", "--r", "2", "--s", "6", "--I", "{1};{1};{1};{1};{1}", "--K", "{1}"],
     True),
    (["hilbert", "--r", "2", "--s", "6", "--bound", "1"], True),
    # C and EqC have lines, so indecomposability is not defined in them
    (["hilbert", "--r", "2", "--bound", "1", "--kind", "c"], False),
    (["hilbert", "--r", "2", "--bound", "1", "--kind", "eqc"], False),
    (["tables", "--which", "ray-counts", "--max-r", "2", "--s", "6"], True),
    # within the r and s ceilings, over the Horn work ceiling
    (["horn", "--r", "7", "--d", "3", "--s", "5"], False),
    (["horn", "--r", "12", "--d", "6"], False),
    (["horn", "--r", "2", "--d", "1", "--s", "1000000000"], False),
    # C(99999, 49999) is over the ceiling: refused without its power
    (["horn", "--r", "99999", "--d", "49999", "--s", "17"], False),
    (["member", "--point", ";".join([ROW12] * 3)], False),
    (["member", "--point", "1/0,0;0,0;0,0"], False),
    (["sample", "--spectra", ";".join([ROW12] * 2)], False),
    (["sample", "--spectra", "1,0"], False),  # one spectrum: s = 2
    # the check itself stops after its first term
    pytest.param(["member", "--point", ";".join([ROW20K] * 3)], False,
                 id="member --point r=20000"),
    pytest.param(["sample", "--spectra", ";".join([ROW20K] * 2)], False,
                 id="sample --spectra r=20000"),
    (["rays", "--r", "6", "--s", "5"], False),
    (["rays", "--r", "8", "--s", "8", "--extended"], False),
    # options that did nothing are argparse errors now
    (["horn", "--r", "2", "--d", "1", "--threads", "2"], False),
    (["horn", "--r", "2", "--d", "1", "--extended"], False),
    (["rays", "--r", "2", "--format", "tsv"], False),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_refused_at_once(capsys, argv, suggests_extended):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error" in captured.err
    assert ("pass --extended" in captured.err) == suggests_extended


def test_tables_hilbert_counts_refused_before_any_search(capsys, monkeypatch):
    # with a 20 MB budget rows r <= 3 fit (about 10 MB each) and r = 4, with
    # bound 4, does not (about 35 MB): every row's budget is checked before
    # the first search starts, and as soon as its rays are known, so the
    # rays of row 5 are never enumerated
    def search(*args, **kwargs):
        raise AssertionError("a Hilbert search started")
    enumerated = []

    def rays(r, s, kind):
        enumerated.append(r)
        return enumerate_rays(r, s, kind)
    monkeypatch.setattr(cli, "hilbert_basis_bounded", search)
    monkeypatch.setattr(cli, "enumerate_rays", rays)
    monkeypatch.setattr(hilbert, "SEARCH_BYTE_BUDGET", 2 * 10**7)
    code, out, err = run(capsys, "tables", "--which", "hilbert-counts", "--max-r", "5")
    assert code == 2 and out == ""
    assert "r=4, s=3, B=4" in err and "budget" in err
    assert enumerated == [1, 2, 3, 4]


def test_tables_hilbert_counts(capsys):
    code, out, _ = run(capsys, "tables", "--which", "hilbert-counts", "--max-r", "4")
    assert code == 0
    assert out == "r\trays\thilbert\n1\t3\t3\n2\t10\t10\n3\t27\t27\n4\t72\t72\n"


def test_closed_stdout_exits_quietly():
    # the report (about 150 kB) overflows the pipe, so writes go on after
    # the reader has closed its end
    src = os.path.dirname(os.path.dirname(lrcone.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lrcone.cli", "sample", "--spectra", "1,0;1,0",
         "--trials", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err == ""


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "member", "--point", "1;0;1", "--format", "json",
                       "--output", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["result"]["member"] is True


def test_sample_jsonl(tmp_path, capsys):
    target = tmp_path / "samples.jsonl"
    code, _, _ = run(capsys, "sample", "--spectra", "1,0;1,0", "--trials", "5",
                     "--seed", "9", "--output", str(target))
    assert code == 0
    records = [json.loads(l) for l in target.read_text().splitlines()]
    assert len(records) == 5
    assert all(set(rec) == {"spectra", "result", "mode", "max_violation"}
               and rec["mode"] == "equal" and rec["max_violation"] < 1e-9
               for rec in records)


def test_sample_output_is_pinned(capsys):
    # floats keep Python arithmetic in the violation; recorded before
    # integer points moved to the float64 product
    code, out, _ = run(capsys, "sample", "--spectra", "3,1,0;2,1,0.5",
                       "--trials", "200", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c72fe223b96bf5e98754abbca67d665b77858cf6af360173fe7755ab53503206")


def test_sample_spectra_of_unequal_length(capsys):
    code, out, err = run(capsys, "sample", "--spectra", "1,0;1,0,0")
    assert code == 2 and out == ""
    assert err == ("error: spectrum (1.0, 0.0, 0.0) has length 3; "
                   "expected 2, the length of the first\n")


@pytest.mark.parametrize("spectra", ["nan,0;1,0", "inf,0;1,0", "1,0;1,-inf"])
def test_sample_non_finite_spectra(capsys, spectra):
    code, out, err = run(capsys, "sample", "--spectra", spectra, "--trials", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: spectrum (") and "is not finite" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
