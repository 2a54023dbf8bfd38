"""Front-end contract: job files in, reports out, exit codes honest.

Everything runs in-process through gogtools.cli.main / cli.run with the
working directory pointed at a temp dir, so relative output paths in job
files land there.  One test runs ``python -m gogtools.cli`` as a separate
process, against the same gogtools the suite imported (from a source checkout
or an install alike), so the module entry point is exercised end to end; it
does not need an installed ``gogtool`` script.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from gogtools import cli

REPO = pathlib.Path(__file__).resolve().parents[1]
JOBS = REPO / "jobs"


def run_job(tmp_path, monkeypatch, spec, name="job.json"):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / name
    if isinstance(spec, str):
        path.write_text(spec)
    else:
        path.write_text(json.dumps(spec, indent=2) + "\n")
    return cli.main([str(path)]), path


def tree_spec(**params):
    base = {"model": "sl2z", "radius": 3}
    base.update(params)
    return {
        "command": "build-tree",
        "parameters": base,
        "output": {"report": "out/report.json"},
    }


# -- schema -----------------------------------------------------------------


def test_schema_file_in_sync():
    shipped = json.loads((REPO / "schema" / "jobspec.schema.json").read_text())
    assert shipped == cli.JOBSPEC_SCHEMA


def test_print_schema_round_trips(capsys):
    assert cli.main(["--print-schema", "ignored.json"]) == 0
    assert json.loads(capsys.readouterr().out) == cli.JOBSPEC_SCHEMA


def test_every_command_is_in_the_schema_enum():
    assert sorted(cli.COMMANDS) == cli.JOBSPEC_SCHEMA["properties"]["command"]["enum"]


# -- happy path -------------------------------------------------------------


def test_build_tree_job(tmp_path, monkeypatch, capsys):
    rc, path = run_job(tmp_path, monkeypatch, {
        "command": "build-tree",
        "parameters": {"model": "sl2z", "radius": 4},
        "output": {"report": "out/report.json", "dot": "out/tree.dot"},
    })
    assert rc == 0
    assert "build-tree:" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["result"]["levels"] == {"0": 1, "1": 2, "2": 4, "3": 4, "4": 8}
    assert report["result"]["degrees"] == [2, 3]
    assert (tmp_path / "out" / "tree.dot").read_text().startswith("graph treeball")
    prov = report["provenance"]
    assert prov["tool"] == "gogtools"
    assert prov["spec_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert prov["caps"] == {"cap": 10 ** 6}


def test_report_is_canonical_json(tmp_path, monkeypatch):
    rc, _ = run_job(tmp_path, monkeypatch, tree_spec())
    assert rc == 0
    text = (tmp_path / "out" / "report.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_false_verdict_still_exits_0(tmp_path, monkeypatch):
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": "cprime",
        "parameters": {"model": "c4c6_free", "word": {"ab": [1, 1, 2, 2, 3, 3]},
                       "m": 12, "lam": "1/100"},
        "output": {"report": "out/report.json"},
    })
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["result"]["verdict"] is False


def test_seeded_job_reruns_byte_identical(tmp_path, monkeypatch):
    spec = {
        "command": "hyp-estimate",
        "parameters": {"ball": {"family": "grid", "radius": 3},
                       "seed": 3233, "samples": 500},
        "output": {"report": "out/report.json"},
    }
    rc, _ = run_job(tmp_path, monkeypatch, spec)
    assert rc == 0
    first = (tmp_path / "out" / "report.json").read_bytes()
    rc, _ = run_job(tmp_path, monkeypatch, spec)
    assert rc == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == first
    report = json.loads(first)
    assert report["provenance"]["seeds"] == {"seed": 3233}


def test_console_entry_point_subprocess(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(tree_spec()) + "\n")
    # The child runs in tmp_path, where a relative PYTHONPATH entry such as
    # "src" resolves to nothing; put the absolute directory holding the
    # gogtools under test in front so the child imports that very package.
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "gogtools.cli", str(path)],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "build-tree:" in proc.stdout
    assert (tmp_path / "out" / "report.json").exists()


def test_shipped_jobs_all_run_clean(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for job in sorted(JOBS.glob("*.json")):
        assert cli.run(str(job)) == 0, job.name


# -- exit code 2: malformed or unresolvable jobs ----------------------------


def test_malformed_json_exit_2(tmp_path, monkeypatch, capsys):
    rc, _ = run_job(tmp_path, monkeypatch, '{"command": "build-tree",}')
    assert rc == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "line 1" in err


def test_missing_file_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main([str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_schema_violation_names_offending_path(tmp_path, monkeypatch, capsys):
    rc, _ = run_job(tmp_path, monkeypatch, tree_spec(radius=-1))
    assert rc == 2
    err = capsys.readouterr().err
    assert "$.parameters.radius" in err


def test_unknown_command_is_a_schema_violation(tmp_path, monkeypatch, capsys):
    spec = tree_spec()
    spec["command"] = "frobnicate"
    rc, _ = run_job(tmp_path, monkeypatch, spec)
    assert rc == 2
    assert "$.command" in capsys.readouterr().err


def test_extra_toplevel_key_rejected(tmp_path, monkeypatch, capsys):
    spec = tree_spec()
    spec["notes"] = "scribble"
    rc, _ = run_job(tmp_path, monkeypatch, spec)
    assert rc == 2
    assert "schema violation" in capsys.readouterr().err


def test_unknown_model_exit_2(tmp_path, monkeypatch, capsys):
    rc, _ = run_job(tmp_path, monkeypatch, tree_spec(model="nope"))
    assert rc == 2
    assert "unknown model 'nope'" in capsys.readouterr().err


def test_unresolvable_locator_exit_2(tmp_path, monkeypatch, capsys):
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": "link",
        "parameters": {"ball": {"family": "grid", "radius": 2}, "k": 4,
                       "vertex": {"rep": [9, 9]}},
        "output": {"report": "out/report.json"},
    })
    assert rc == 2
    assert "no vertex with rep" in capsys.readouterr().err


def test_unproduced_output_slot_exit_2(tmp_path, monkeypatch, capsys):
    spec = tree_spec()
    spec["output"]["off"] = "out/tree.off"
    rc, _ = run_job(tmp_path, monkeypatch, spec)
    assert rc == 2
    assert "produces no 'off' output" in capsys.readouterr().err


# -- exit code 3: caps ------------------------------------------------------


def test_cap_exceeded_exit_3_with_partial_report(tmp_path, monkeypatch):
    rc, path = run_job(tmp_path, monkeypatch, tree_spec(radius=8, cap=20))
    assert rc == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["type"] == "cap-exceeded"
    assert report["error"]["detail"]["vertices"] >= 20
    assert report["provenance"]["caps"] == {"cap": 20}
    assert "result" not in report


# -- exit code 4: unsupported oracles ---------------------------------------


def test_unsupported_oracle_exit_4(tmp_path, monkeypatch):
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": "dehn-sample",
        "parameters": {"model": "c4c6_free", "relator": {"ab": [1, 1, 2, 2, 3, 3]},
                       "power": 1, "lengths": [6], "mode": "sample"},
        "output": {"report": "out/report.json"},
    })
    assert rc == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["type"] == "unsupported"
    assert "C'(1/6)" in report["error"]["message"]


@pytest.mark.parametrize("model, word, cause", [
    ("sl2z", {"ab": [1]}, "no edges"),
    ("free_rank2", {"syllables": [[0, 0], [0, 0]]}, "stable letters only"),
    ("hnn_c6", {"syllables": [[0, 0], [0, 0]]}, "stable letters only"),
    ("hnn_c6", {"syllables": [[0, 4], [0, 0]]}, "does not count stable letters"),
])
def test_cprime_degenerate_relator_exit_4(tmp_path, monkeypatch, model, word,
                                          cause):
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": "cprime",
        "parameters": {"model": model, "word": word, "m": 3, "lam": "1/6"},
        "output": {"report": "out/report.json"},
    })
    assert rc == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["type"] == "unsupported"
    assert cause in report["error"]["message"]


# -- resolved fixtures behave like the library ------------------------------


def test_wz_audit_reports_containment(tmp_path, monkeypatch):
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": "wz-audit",
        "parameters": {"action": {"kind": "tree", "model": "sl2z", "radius": 8},
                       "spec": {"kind": "uH", "u": 1, "H": {"stab": 0}},
                       "a": 0, "b": 7, "n": 6},
        "output": {"report": "out/report.json"},
    })
    assert rc == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert result["containment_problems"] == []
    assert result["W_cardinalities"] == [1, 2, 2, 2, 2, 2, 2]
    assert result["ell"] == 2


def test_qi_attach_certificate_ell_2(tmp_path, monkeypatch):
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": "qi",
        "parameters": {"attach": {
            "action": {"kind": "abelian", "ball": {"family": "line", "radius": 6}},
            "spec": {"kind": "uv", "u": {"rep": [0]}, "v": {"rep": [2]}}}},
        "output": {"report": "out/report.json"},
    })
    assert rc == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert result["ell"] in (2, "2")  # exact rationals render through str
    assert result["violations"] == []
