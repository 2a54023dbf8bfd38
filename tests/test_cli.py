"""Front-end contract: job files in, reports out, exit codes honest.

Everything runs in-process through gogtools.cli.main / cli.run with the
working directory pointed at a temp dir, so relative output paths in job
files land there.  One test runs ``python -m gogtools.cli`` as a separate
process, against the same gogtools the suite imported (from a source checkout
or an install alike), so the module entry point is exercised end to end; it
does not need an installed ``gogtool`` script.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import fixtures
from gogtools import cli, models
from gogtools.gog import validate

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


def test_print_schema_round_trips(capsys):
    assert cli.main(["--print-schema", "ignored.json"]) == 0
    shipped = pathlib.Path(cli.__file__).with_name("jobspec.schema.json")
    assert capsys.readouterr().out == shipped.read_text()


def test_every_command_is_in_the_schema_enum():
    assert sorted(cli.COMMANDS) == cli.JOBSPEC_SCHEMA["properties"]["command"]["enum"]


def test_schema_ships_as_package_data(tmp_path):
    # build_py writes an egg-info next to the sources, so build a copy
    shutil.copy(REPO / "pyproject.toml", tmp_path)
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "build_py", "--build-lib", str(tmp_path / "lib")],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "lib" / "gogtools" / "jobspec.schema.json").is_file()


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


def test_hyp_estimate_small_ball_below_limit(tmp_path, monkeypatch):
    # a ball of fewer than 4 vertices has no quadruple to sample
    spec = {
        "command": "hyp-estimate",
        "parameters": {"ball": {"family": "cycle", "m": 3},
                       "exhaustive_limit": 0},
        "output": {"report": "out/report.json"},
    }
    rc, _ = run_job(tmp_path, monkeypatch, spec)
    assert rc == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())[
        "result"]
    assert result["method"] == "exhaustive"
    assert result["delta"] == "0" and result["quadruples"] == 0


def _child_env():
    # A child runs in tmp_path, where a relative PYTHONPATH entry such as
    # "src" resolves to nothing; put the absolute directory holding the
    # gogtools under test in front so the child imports that very package.
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def test_console_entry_point_subprocess(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(tree_spec()) + "\n")
    proc = subprocess.run([sys.executable, "-m", "gogtools.cli", str(path)],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "build-tree:" in proc.stdout
    assert (tmp_path / "out" / "report.json").exists()


# -- import footprint: a job loads only the modules its command uses --------

_LOADED_MODULES = """\
import sys
from gogtools import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""


def _loaded_modules(tmp_path, *argv, flags=()):
    """The modules a fresh process has loaded after ``gogtool ARGV``."""
    proc = subprocess.run([sys.executable, *flags, "-c", _LOADED_MODULES,
                           *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "jsonschema" not in loaded
    return loaded


@pytest.mark.parametrize("argv", [(), ("--print-schema",)],
                         ids=["import", "print-schema"])
def test_front_end_loads_no_toolkit_module(tmp_path, argv):
    loaded = _loaded_modules(tmp_path, *argv)
    assert {name for name in loaded if name.startswith("gogtools")} == {
        "gogtools", "gogtools.cli", "gogtools.errors", "gogtools.jobschema"}


def test_print_schema_loads_no_digest_or_tempfile_module(tmp_path):
    # -S: a site hook of the host may import tempfile before gogtools runs
    loaded = _loaded_modules(tmp_path, "--print-schema", flags=("-S",))
    assert not {"hashlib", "tempfile"} & loaded


@pytest.mark.parametrize("job, used, unused", [
    ("tree_sl2z", "tree", ["smallcanc", "complexes", "fineness"]),
    ("cprime_r12", "smallcanc",
     ["cayley_abels", "complexes", "concrete", "tree"]),
])
def test_job_loads_only_the_modules_it_uses(tmp_path, job, used, unused):
    loaded = _loaded_modules(tmp_path, str(JOBS / f"{job}.json"))
    assert f"gogtools.{used}" in loaded
    assert not {f"gogtools.{name}" for name in unused} & loaded


# every job loads the front end, the model registry and the word layer
_JOB_BASE = {"cli", "errors", "jobschema", "models", "finite", "gog"}


@pytest.mark.parametrize("job, modules", [
    ("tree_sl2z", {"tree", "cayley_abels"}),
    ("px_d3", {"tree", "cayley_abels", "smallcanc", "complexes"}),
    ("cprime_r12", {"smallcanc"}),
    ("compute_m_r", {"smallcanc"}),
])
def test_job_imports_exactly_the_modules_it_calls(tmp_path, job, modules):
    # tree and coset-ball jobs compile no ``concrete`` (only the
    # coset-graph builder's annotation names it), and the relator jobs no
    # ball builder
    loaded = _loaded_modules(tmp_path, str(JOBS / f"{job}.json"))
    assert {name for name in loaded if name.startswith("gogtools.")} == {
        f"gogtools.{name}" for name in _JOB_BASE | modules}
    assert (tmp_path / "out" / f"{job}.report.json").is_file()


def test_abelianization_loads_no_sympy(tmp_path):
    # the Smith form is exact integer elimination; sympy is a test oracle
    code = ("import sys\n"
            "from gogtools.complexes import Presentation, abelianization\n"
            "print(abelianization(Presentation(('x', 'y'),"
            " [(1, 1, 1, 1, 2, 2), (2, 2, 2, 2, 2, 2)])))\n"
            "print(' '.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    h1, loaded = proc.stdout.splitlines()[-2:]
    assert h1 == "(0, (2, 12))"
    assert not [m for m in loaded.split() if m.partition(".")[0] == "sympy"]


def test_shipped_jobs_all_run_clean(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for job in sorted(JOBS.glob("*.json")):
        assert cli.run(str(job)) == 0, job.name


def _mutations(node, at=()):
    """(path, value) for each variant of a job's parameters: every integer,
    array entries included, set to 0, 1 and 2, and every array cut to its
    first element and to empty."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _mutations(value, at + (key,))
    elif isinstance(node, list):
        yield at, node[:1]
        yield at, []
        for i, value in enumerate(node):
            yield from _mutations(value, at + (i,))
    elif type(node) is int:
        for n in (0, 1, 2):
            yield at, n


@pytest.mark.parametrize("job", sorted(p.stem for p in JOBS.glob("*.json")))
def test_mutated_parameters_exit_with_a_contract_code(job, tmp_path,
                                                      monkeypatch):
    # every variant either runs (0), is rejected as a bad job (2), or ends
    # at a cap (3) or an unsupported input (4), with a report on 0, 3 and 4
    monkeypatch.chdir(tmp_path)
    spec = json.loads((JOBS / f"{job}.json").read_text())
    report = tmp_path / spec["output"]["report"]
    bad = []
    for at, value in _mutations(spec["parameters"]):
        variant = json.loads(json.dumps(spec))
        node = variant["parameters"]
        for key in at[:-1]:
            node = node[key]
        node[at[-1]] = value
        (tmp_path / "job.json").write_text(json.dumps(variant))
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        try:
            rc = cli.run(str(tmp_path / "job.json"))
        except Exception as exc:  # a crash is recorded, not raised
            rc = repr(exc)
        if rc not in (0, 2, 3, 4) or (rc != 2 and not report.exists()):
            bad.append((at, value, rc))
    assert bad == []


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


@pytest.mark.parametrize("command, params", fixtures.MISSING_REQUIRED)
def test_missing_required_parameter_is_a_schema_violation(
        command, params, tmp_path, monkeypatch, capsys):
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": command, "parameters": params,
        "output": {"report": "out/report.json"},
    })
    assert rc == 2
    err = capsys.readouterr().err
    assert "schema violation at $.parameters" in err
    assert "is a required property" in err


@pytest.mark.parametrize("spec, path", fixtures.CRASH_PROBES,
                         ids=["lam-1/0", "cycle-m1", "radius-2.0", "m-12.0"])
def test_schema_rejects_what_a_handler_cannot_run(spec, path, tmp_path,
                                                  monkeypatch, capsys):
    rc, _ = run_job(tmp_path, monkeypatch, spec)
    assert rc == 2
    assert f"schema violation at {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


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


@pytest.mark.parametrize("model, word, cause", [
    ("c4c6_free", {"ab": [1, 2], "start": 7}, "start 7 is not a vertex"),
    ("hnn_c6", {"ab": [1, 2]}, "exactly two vertices"),
    ("c4c6_free", {"syllables": [[1, 99]]}, "element 99 out of range"),
])
def test_bad_word_descriptor_exit_2(tmp_path, monkeypatch, capsys, model,
                                    word, cause):
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": "symmetrize",
        "parameters": {"model": model, "word": word},
        "output": {"report": "out/report.json"},
    })
    assert rc == 2
    assert cause in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("job", ["ca_quotient_d3", "px_d3"])
@pytest.mark.parametrize("wp, cause", [
    ({"dihedral": 3, "images": [[0, 3]]}, "one row of images per vertex"),
    ({"dihedral": 2, "images": [[0, 3], [0, 4]]},
     "elements 0..3 of the target"),
], ids=["one-row", "d3-images-into-d2"])
def test_wp_images_outside_the_target_exit_2(job, wp, cause, tmp_path,
                                             monkeypatch, capsys):
    spec = json.loads((JOBS / f"{job}.json").read_text())
    spec["parameters"]["wp"] = wp
    rc, _ = run_job(tmp_path, monkeypatch, spec)
    assert rc == 2
    assert cause in capsys.readouterr().err
    assert not (tmp_path / spec["output"]["report"]).exists()


# -- exit code 3: caps ------------------------------------------------------


def test_cap_exceeded_exit_3_with_partial_report(tmp_path, monkeypatch):
    rc, path = run_job(tmp_path, monkeypatch, tree_spec(radius=8, cap=20))
    assert rc == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["type"] == "cap-exceeded"
    assert report["error"]["detail"]["vertices"] >= 20
    assert report["provenance"]["caps"] == {"cap": 20}
    assert "result" not in report


@pytest.mark.parametrize("command, extra", [
    ("omega-k", {}),
    ("link", {"vertex": {"rep": [0, 0]}}),
    ("pi1", {}),
], ids=["omega-k", "link", "pi1"])
def test_ball_cap_applies_to_the_ball(command, extra, tmp_path, monkeypatch):
    # the radius-10 grid ball has 221 vertices, more than the cap
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": command,
        "parameters": dict({"ball": {"family": "grid", "radius": 10},
                            "k": 0, "cap": 100}, **extra),
        "output": {"report": "out/report.json"},
    })
    assert rc == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["type"] == "cap-exceeded"
    assert report["provenance"]["caps"] == {"cap": 100}
    assert "result" not in report


# -- exit code 4: unsupported oracles ---------------------------------------


def test_error_report_writes_no_other_output_slot(tmp_path, monkeypatch):
    # m-thin with power 1 is unsupported; its complex slot stays unwritten
    spec = json.loads((JOBS / "m_thin_r12.json").read_text())
    spec["parameters"]["power"] = 1
    rc, _ = run_job(tmp_path, monkeypatch, spec)
    assert rc == 4
    report = json.loads((tmp_path / spec["output"]["report"]).read_text())
    assert report["error"]["type"] == "unsupported"
    assert not (tmp_path / spec["output"]["complex"]).exists()


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


def test_px_complex_short_relator_exit_4(tmp_path, monkeypatch):
    # over C4∗C6 the kernel oracle of ab would refute ab itself by its
    # length gate; a relator of 6 syllables or fewer is refused instead
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": "px-complex",
        "parameters": {"model": "c4c6_free", "relators": [{"ab": [1, 1]}],
                       "power": 1, "radius": 3},
        "output": {"report": "out/report.json",
                   "complex": "out/complex.json"},
    })
    assert rc == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["type"] == "unsupported"
    assert "longer than 1/λ = 6" in report["error"]["message"]
    assert not (tmp_path / "out" / "complex.json").exists()


def test_px_complex_relator_core_off_vertex_0(tmp_path, monkeypatch):
    # a·b·a·b·a·b·a with a = 0 is (ba)³ at vertex 0, whose cyclic core
    # starts at vertex 1; it spans the same 2-cells as px_d3's (ab)³
    spec = json.loads((JOBS / "px_d3.json").read_text())
    (tmp_path / "ab").mkdir()
    (tmp_path / "ba").mkdir()
    rc, _ = run_job(tmp_path / "ab", monkeypatch, spec)
    assert rc == 0
    spec["parameters"]["relators"] = [{"ab": [0, 1, 1, 1, 1, 1, 1]}]
    rc, _ = run_job(tmp_path / "ba", monkeypatch, spec)
    assert rc == 0
    for slot in ("complex", "off"):
        out = spec["output"][slot]
        assert ((tmp_path / "ba" / out).read_bytes()
                == (tmp_path / "ab" / out).read_bytes())


def test_m_thin_relator_core_off_vertex_0(tmp_path, monkeypatch):
    spec = json.loads((JOBS / "m_thin_r12.json").read_text())
    spec["parameters"]["word"] = {"ab": [0, 1, 1, 2, 2, 3, 3, 1, 1]}
    rc, _ = run_job(tmp_path, monkeypatch, spec)
    assert rc == 0
    report = json.loads((tmp_path / spec["output"]["report"]).read_text())
    assert report["result"]["verdict"]
    assert report["result"]["max_count"] == report["result"]["M"] == 8


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


def test_cprime_over_a_loop_edge_exit_4(tmp_path, monkeypatch):
    """b·t·b²·t over hnn_c6 has λ* = 1/7 at m = 7, under 1/6; the verdict
    is refused because the piece measure does not see stable letters."""
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": "cprime",
        "parameters": {"model": "hnn_c6",
                       "word": {"syllables": [[0, 1], [0, 2]]},
                       "m": 7, "lam": "1/6"},
        "output": {"report": "out/report.json"},
    })
    assert rc == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["type"] == "unsupported"
    assert "loop edge" in report["error"]["message"]
    assert "does not count stable letters" in report["error"]["message"]


@pytest.mark.parametrize("radii, rc_want",
                         [([6, 7], 4), ([6, 9], 4), ([9, 10], 0)])
def test_fineness_query_deeper_than_the_radii_exit_4(tmp_path, monkeypatch,
                                                     radii, rc_want):
    # u = (5, 0) is 5 from the base, so →uv(4) is in full only from radius
    # 9; at radius 6 the truncated set has 2 members where the full set has
    # 3, so [6, 7] and [6, 9] would both be a false GROWING
    rc, _ = run_job(tmp_path, monkeypatch, {
        "command": "fineness",
        "parameters": {"family": "grid", "u": {"rep": [5, 0]},
                       "v": {"rep": [5, 1]}, "k": 4, "radii": radii},
        "output": {"report": "out/report.json"},
    })
    assert rc == rc_want
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    if rc == 4:
        assert report["error"]["type"] == "unsupported"
    else:
        assert report["result"]["verdict"] == "STABLE"
        assert report["result"]["cardinalities"] == [3, 3]


# -- exit code 5: internal faults -------------------------------------------


@pytest.mark.parametrize("fault", [RuntimeError, TypeError, KeyError,
                                   ZeroDivisionError])
def test_internal_fault_exit_5_with_error_report(tmp_path, monkeypatch,
                                                 capsys, fault):
    def broken(params, ctx):
        raise fault("cyclic reduction failed to stabilize")

    monkeypatch.setitem(cli.COMMANDS, "build-tree", broken)
    rc, _ = run_job(tmp_path, monkeypatch, tree_spec())
    assert rc == 5
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"] == {"type": "internal", "message": str(
        fault("cyclic reduction failed to stabilize"))}
    assert "result" not in report
    err = capsys.readouterr().err
    assert "Traceback" in err and "build-tree: internal error" in err


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


def test_front_end_imports_no_private_name():
    # the job handlers call each toolkit module (from .module import ...)
    # through its public entry points
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    private = [(node.module, alias.name)
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               and node.module
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_readme_library_block_runs(capsys):
    # the README's "Library use" example is executed as written, so its
    # signatures and printed results cannot drift from the library
    text = (REPO / "README.md").read_text()
    section = text.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["43", "True 1/24"]


@pytest.mark.parametrize("name", sorted(models.MODELS))
def test_model_is_valid(name):
    assert validate(models.model(name)) == []
