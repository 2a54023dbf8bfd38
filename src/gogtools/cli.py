"""Batch front-end: one JSON job specification in, one JSON report out.

Conventions
-----------
* A job is a single JSON file

      {"command": ..., "parameters": {...}, "output": {"report": PATH, ...}}

  Extra output slots ("dot", "off", "ball", "complex") hold paths for
  the renderings a command can emit.
* Models, ball families, subgroup handles and words are referenced by
  name or by small descriptor objects.  Models, words and ball families
  resolve through the registries in ``gogtools.models``; vertex
  locators, subgroup handles and word-problem targets resolve here.  An
  unresolvable reference is a defect of the job file, not of the
  toolkit, and exits like a schema violation.
* Rational parameters travel as strings "p/q" and are parsed exactly;
  no floats enter any verdict.  The one floated number in a report is the
  least-squares fit of dehn-sample (``fit.slope`` and ``fit.intercept``,
  rounded to 6 places).
* Reports are deterministic: keys sorted, fractions rendered through
  ``str``, frozensets as sorted lists, and every file written atomically
  (temp file + rename in the target directory).  Rerunning a job byte-
  reproduces its outputs.  Every report embeds a provenance block with
  the toolkit version, the SHA-256 of the job file, and the effective
  seeds and caps.
* Imports happen per command.  At import this module loads only
  ``errors`` and ``jobschema`` (which checks a job against the shipped
  ``jobspec.schema.json``); each handler imports the toolkit modules it
  calls, so a job process loads only what its command uses.
* Exit codes: 0 success — a finished computation whose verdict is False
  is a success; 2 malformed or schema-invalid job (diagnostic names the
  offending path); 3 a configured cap was exceeded, with a partial
  report still written; 4 a requested oracle cannot serve the input; 5
  an internal fault (any other exception inside the command), with an
  error report of type "internal" and the traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__, jobschema
from .errors import CapExceeded, UnsupportedInput


class JobError(ValueError):
    """A job file that parses and validates but does not resolve."""


# -- vertices, subgroups and word problems named in a job -------------------


def _locate(ball, spec):
    """Vertex locator: a bare index, {"rep": [...]}, or
    {"tag": ..., "key": [...]} matched against the ball contents."""
    if isinstance(spec, int):
        if not 0 <= spec < len(ball.verts):
            raise JobError(f"vertex index {spec} out of range")
        return spec
    if "rep" in spec:
        want = _nested_tuple(spec["rep"])
        for i, v in enumerate(ball.verts):
            if v.rep == want:
                return i
        raise JobError(f"no vertex with rep {want!r}")
    if "tag" in spec and "key" in spec:
        want = _nested_tuple(spec["key"])
        for i, v in enumerate(ball.verts):
            if v.tag == spec["tag"] and v.key == want:
                return i
        raise JobError(f"no vertex {spec['tag']} with key {want!r}")
    if "index" in spec:
        return _locate(ball, spec["index"])
    raise JobError(f"cannot resolve vertex locator {spec!r}")


def _nested_tuple(x):
    if isinstance(x, list):
        return tuple(_nested_tuple(y) for y in x)
    return x


def _action(spec):
    from . import models
    from .fineness import AbelianBallAction, TreeBallAction

    if spec["kind"] == "tree":
        return TreeBallAction(models.model(spec["model"]), spec["radius"])
    return AbelianBallAction(models.ball(spec["ball"]))


def _handle(action, name):
    from .concrete import SubgroupHandle, trivial_handle

    if name == "trivial":
        return trivial_handle(action)
    elements = action.stab_elements(name["stab"])
    return SubgroupHandle(f"stab{name['stab']}",
                          contains=lambda w: w in elements, elements=elements)


def _attach(params):
    from .fineness import attach_edge_orbit

    action = _action(params["action"])
    spec = dict(params["spec"])
    spec["u"] = _locate(action.ball, spec["u"])
    if spec["kind"] == "uv":
        spec["v"] = _locate(action.ball, spec["v"])
    else:
        spec["H"] = _handle(action, spec["H"])
    return action, attach_edge_orbit(action, spec)


def _wp(gog, spec):
    if spec is None:
        return None
    from .finite import make_cyclic, make_dihedral
    from .smallcanc import evaluation_wp

    if "dihedral" in spec:
        target = make_dihedral(spec["dihedral"])
    elif "cyclic" in spec:
        target = make_cyclic(spec["cyclic"])
    else:
        raise JobError(f"word-problem target needs 'dihedral' or 'cyclic': {spec!r}")
    return evaluation_wp(gog, target, [list(row) for row in spec["images"]])


# -- handlers ---------------------------------------------------------------
#
# Each handler takes (params, ctx) and returns (result, extras, summary);
# extras maps output slots ("dot", "off", "ball", "complex") to content.
# ctx collects the effective seeds and caps for the provenance block.


def _levels(ball):
    out = {}
    for v in ball.verts:
        out[v.dist] = out.get(v.dist, 0) + 1
    return {str(d): out[d] for d in sorted(out)}


def _cmd_build_tree(params, ctx):
    from . import models
    from .tree import build_tree_ball, tree_to_dot, tree_to_json

    cap = params.get("cap", 10 ** 6)
    ctx["caps"]["cap"] = cap
    ball = build_tree_ball(models.model(params["model"]), params["radius"],
                           base=params.get("base", 0), cap=cap)
    result = {
        "radius": ball.radius,
        "vertices": len(ball.verts),
        "edges": len(ball.edges),
        "levels": _levels(ball),
        "degrees": sorted({ball.degree(i) for i in range(len(ball.verts))
                           if ball.verts[i].dist < ball.radius}),
    }
    extras = {"ball": tree_to_json(ball), "dot": tree_to_dot(ball)}
    return result, extras, f"{result['vertices']} vertices, {result['edges']} edges"


def _ca_ball(params, ctx):
    from . import models
    from .cayley_abels import quotient_tree_ball

    cap = params.get("cap", 10 ** 6)
    ctx["caps"]["cap"] = cap
    if params["variant"] == "coset":
        return models.ball(params["ball"], cap=cap)
    gog = models.model(params["model"])
    relators = [models.word(gog, d) for d in params.get("relators", [])]
    wp = _wp(gog, params.get("wp"))
    return quotient_tree_ball(gog, relators, params["radius"], wp=wp, cap=cap)


def _cmd_build_ca(params, ctx):
    from .cayley_abels import ca_to_dot, ca_to_json

    ball = _ca_ball(params, ctx)
    result = {
        "radius": ball.radius,
        "vertices": ball.vertex_count(),
        "edges": ball.edge_count(),
        "levels": _levels(ball),
        "notes": list(ball.notes),
    }
    extras = {"ball": ca_to_json(ball), "dot": ca_to_dot(ball)}
    return result, extras, f"{result['vertices']} vertices, {result['edges']} edges"


def _cmd_check_ca(params, ctx):
    from .cayley_abels import check_ca_conditions

    ball = _ca_ball(params, ctx)
    result = check_ca_conditions(ball)
    flags = {k: v["pass"] for k, v in result.items()
             if isinstance(v, dict) and "pass" in v}
    ok = all(flag is not False for flag in flags.values())
    return result, {}, f"checks={'ok' if ok else 'FAILED'} {flags}"


def _cmd_fineness(params, ctx):
    from . import models
    from .fineness import fineness_report

    spec = {k: v for k, v in params.items() if k in ("family", "m", "model")}
    u_spec, v_spec = params["u"], params["v"]
    result = fineness_report(
        lambda R: models.ball(dict(spec, radius=R)),
        lambda b: _locate(b, u_spec),
        lambda b: _locate(b, v_spec),
        params["k"],
        list(params["radii"]),
    )
    return result, {}, f"verdict={result['verdict']}"


def _cmd_attach(params, ctx):
    from .cayley_abels import ca_to_dot, ca_to_json

    action, att = _attach(params)
    delta = att.delta
    result = {
        "kind": att.kind,
        "gamma_vertices": att.gamma.vertex_count(),
        "delta_vertices": delta.vertex_count(),
        "new_edges": len(att.new_edges),
        "cones": len(att.cones) if att.cones is not None else 0,
        "outside_theorem": att.outside_theorem,
        "new_edge_stab_orders": sorted({delta.edges[k].stab_order
                                        for k in att.new_edges}),
    }
    if att.rep_cone is not None:
        info = att.cones[att.rep_cone]
        result["rep_cone"] = {"index": info["index"], "nbrs": list(info["nbrs"]),
                              "degree": len(info["nbrs"])}
    return result, {"ball": ca_to_json(delta), "dot": ca_to_dot(delta)}, (
        f"{result['new_edges']} new edges, {result['cones']} cones")


def _cmd_qi(params, ctx):
    from . import models
    from .cayley_abels import compare_balls_qi
    from .fineness import qi_certificate

    if "attach" in params:
        _, att = _attach(params["attach"])
        result = qi_certificate(att.gamma, att.delta)
    elif "compare" in params:
        left = models.ball(params["compare"]["left"])
        right = models.ball(params["compare"]["right"])
        result = compare_balls_qi(left, right)
    else:
        raise JobError("qi needs 'attach' or 'compare' parameters")
    return result, {}, f"ell={result['ell']}"


def _cmd_wz_audit(params, ctx):
    from .fineness import wz_chain

    action, att = _attach(params)
    a = _locate(action.ball, params["a"])
    b = _locate(action.ball, params["b"])
    out = wz_chain(att, a, b, params["n"])
    result = dict(out, a=a, b=b, containment_problems=out["violations"])
    ok = not out["violations"]
    return result, {}, f"containment={'ok' if ok else 'VIOLATED'}"


def _cmd_symmetrize(params, ctx):
    from . import models
    from .gog import word_to_json
    from .smallcanc import symmetrize

    gog = models.model(params["model"])
    w = models.word(gog, params["word"])
    S = symmetrize(w)
    members = sorted(word_to_json(m) for m in S.members)
    result = {
        "count": len(members),
        "member_length": S.member_length(),
        "members": members,
    }
    return result, {}, f"{result['count']} members of length {result['member_length']}"


def _cmd_cprime(params, ctx):
    from . import models
    from .smallcanc import check_cprime, compute_M, thmb_hypothesis

    gog = models.model(params["model"])
    r = models.word(gog, params["word"])
    result = check_cprime(r, params["m"], Fraction(params["lam"]))
    if params.get("hypothesis"):
        tc = compute_M(r)
        result["hypothesis"] = dict(thmb_hypothesis(result["lam"], tc.M), M=tc.M)
    return result, {}, f"verdict={result['verdict']} (lam*={result['lam_star']})"


def _cmd_compute_m(params, ctx):
    from . import models
    from .smallcanc import compute_M

    gog = models.model(params["model"])
    tc = compute_M(models.word(gog, params["word"]))
    result = {
        "k": tc.k,
        "r_syllables": tc.r_syllables,
        "M": tc.M,
        "indices": list(tc.indices),
        "note": tc.note,
    }
    return result, {}, f"M = {tc.k} * {tc.r_syllables} = {tc.M}"


def _cmd_dehn(params, ctx):
    from . import models
    from .gog import syllable_length
    from .smallcanc import dehn_reduce, symmetrize, word_power

    gog = models.model(params["model"])
    guard = params.get("guard", 10 ** 6)
    ctx["caps"]["guard"] = guard
    r = models.word(gog, params["relator"])
    S = symmetrize(word_power(r, params.get("power", 1)))
    rows = []
    for desc in params["words"]:
        w = models.word(gog, desc)
        res = dehn_reduce(w, S, guard=guard)
        rows.append({
            "word": desc,
            "trivial": res.is_trivial,
            "area": res.area,
            "final_syllables": syllable_length(res.word),
            "trace_length": len(res.trace),
        })
    result = {"words": rows}
    hits = sum(1 for row in rows if row["trivial"])
    return result, {}, f"{hits}/{len(rows)} words reduced to the identity"


def _px_complex(params, ctx):
    from . import models
    from .smallcanc import KernelOracle, presentation_complex_ball

    gog = models.model(params["model"])
    cap = params.get("cap", 10 ** 6)
    ctx["caps"]["cap"] = cap
    relators = [models.word(gog, d) for d in params.get("relators", [])]
    wp = _wp(gog, params.get("wp"))
    if wp is None and params.get("power") and params.get("relators"):
        # relator-power quotients can serve their own word problem
        oracle = KernelOracle(gog, models.word(gog, params["relators"][0]),
                              params["power"])
        wp, relators = oracle, [oracle.rm]
    return presentation_complex_ball(gog, relators, params["radius"], wp=wp,
                                     cap=cap)


def _complex_summary(X):
    return {
        "radius": X.skeleton.radius,
        "cells0": len(X.cells0),
        "cells1": len(X.cells1),
        "cells2": len(X.cells2),
        "euler": len(X.cells0) - len(X.cells1) + len(X.cells2),
        "span": X.span,
    }


def _cmd_px_complex(params, ctx):
    from .complexes import to_complex_json, to_off

    X = _px_complex(params, ctx)
    result = _complex_summary(X)
    extras = {"complex": to_complex_json(X), "off": to_off(X)}
    return result, extras, (
        f"{result['cells0']}/{result['cells1']}/{result['cells2']} cells")


def _cmd_m_thin(params, ctx):
    from . import models
    from .complexes import to_complex_json
    from .smallcanc import (
        KernelOracle,
        check_M_thin,
        compute_M,
        presentation_complex_ball,
        thinness_incidence,
    )

    gog = models.model(params["model"])
    r = models.word(gog, params["word"])
    m = params["power"]
    R = params["radius"]
    oracle = KernelOracle(gog, r, m)
    X = presentation_complex_ball(gog, [oracle.rm], R, wp=oracle)
    X.incidence = thinness_incidence(oracle, X.skeleton)
    M = params.get("M")
    if M is None:
        M = compute_M(r).M
    result = check_M_thin(X.incidence, M)
    result["per_edge"] = {str(k): v for k, v in sorted(result["per_edge"].items())}
    return result, {"complex": to_complex_json(X)}, (
        f"verdict={result['verdict']} (max {result['max_count']} <= M={M})")


def _cmd_claim_audit(params, ctx):
    from . import models
    from .smallcanc import claim_audit

    gog = models.model(params["model"])
    r = models.word(gog, params["word"])
    result = claim_audit(r, params["power"])
    verdicts = [result["orbit_bound"]["verdict"], result["injection"]["verdict"],
                result["index_bound"]["verdict"]]
    return result, {}, f"claims {verdicts}, M={result['M']}"


def _omega(params, ctx):
    """The capped ball named in the job and its Ω_k complex."""
    from . import models
    from .complexes import omega_k

    cap = params.get("cap", 10 ** 6)
    ctx["caps"]["cap"] = cap
    ball = models.ball(params["ball"], cap=cap)
    return ball, omega_k(ball, params["k"], cap=cap)


def _cmd_omega_k(params, ctx):
    from .complexes import to_complex_json, to_off

    _, X = _omega(params, ctx)
    result = _complex_summary(X)
    extras = {"complex": to_complex_json(X), "off": to_off(X)}
    return result, extras, f"{result['cells2']} 2-cells at k={params['k']}"


def _cmd_link(params, ctx):
    from .complexes import link, link_component_correspondence

    ball, X = _omega(params, ctx)
    sigma = _locate(ball, params["vertex"])
    L = link(X, sigma)
    result = {
        "vertex": sigma,
        "link_vertices": sorted(L.vertices),
        "link_edges": [list(e) for e in L.edges],
        "degrees": {str(v): L.degree(v) for v in sorted(L.vertices)},
        "components": len(L.components()),
        "partial": L.partial,
    }
    if params.get("correspondence"):
        result["correspondence"] = link_component_correspondence(X, sigma)
    return result, {}, (
        f"{len(L.vertices)} link vertices, {result['components']} components")


def _cmd_pi1(params, ctx):
    from .complexes import abelianization, bounded_trivial, pi1_presentation

    _, X = _omega(params, ctx)
    pres = pi1_presentation(X)
    free_rank, torsion = abelianization(pres)
    result = {
        "generators": list(pres.generators),
        "relators": [list(r) for r in pres.relators],
        "abelianization": {"free_rank": free_rank, "torsion": list(torsion)},
    }
    if "effort" in params:
        ctx["caps"]["effort"] = params["effort"]
        result["bounded_trivial"] = bounded_trivial(pres, effort=params["effort"])
    summary = f"{len(pres.generators)} generators, {len(pres.relators)} relators"
    if "bounded_trivial" in result:
        summary += f", verdict={result['bounded_trivial']['verdict']}"
    return result, {}, summary


def _cmd_dehn_sample(params, ctx):
    from . import models
    from .complexes import dehn_function_sample
    from .smallcanc import KernelOracle, dehn_reduce

    gog = models.model(params["model"])
    r = models.word(gog, params["relator"])
    oracle = KernelOracle(gog, r, params["power"])

    def area(w):
        res = dehn_reduce(w, oracle.S)
        return res.area if res.is_trivial else None

    mode = params.get("mode", "sample")
    kwargs = {"mode": mode, "cap": params.get("cap", 200000)}
    ctx["caps"]["cap"] = kwargs["cap"]
    if mode == "sample":
        kwargs["seed"] = params.get("seed", 0xCA1)
        kwargs["samples"] = params.get("samples", 64)
        ctx["seeds"]["seed"] = kwargs["seed"]
        ctx["caps"]["samples"] = kwargs["samples"]
    result = dehn_function_sample(gog, [oracle.rm], list(params["lengths"]),
                                  oracle.in_kernel, area, **kwargs)
    result["table"] = {str(L): row for L, row in sorted(result["table"].items())}
    fit = result.get("fit")
    return result, {}, (
        f"fit slope {fit['slope']}" if fit else "no fit (degenerate table)")


def _cmd_hyp_estimate(params, ctx):
    from . import models
    from .complexes import hyperbolicity_estimate

    ball = models.ball(params["ball"])
    seed = params.get("seed", 0xCA1)
    samples = params.get("samples", 20000)
    limit = params.get("exhaustive_limit", 40)
    ctx["seeds"]["seed"] = seed
    ctx["caps"]["samples"] = samples
    result = hyperbolicity_estimate(ball, seed=seed, exhaustive_limit=limit,
                                    samples=samples)
    return result, {}, f"delta={result['delta']} ({result['method']})"


COMMANDS = {
    "build-tree": _cmd_build_tree,
    "build-ca": _cmd_build_ca,
    "check-ca": _cmd_check_ca,
    "fineness": _cmd_fineness,
    "wz-audit": _cmd_wz_audit,
    "attach": _cmd_attach,
    "qi": _cmd_qi,
    "symmetrize": _cmd_symmetrize,
    "cprime": _cmd_cprime,
    "compute-m": _cmd_compute_m,
    "dehn": _cmd_dehn,
    "px-complex": _cmd_px_complex,
    "m-thin": _cmd_m_thin,
    "claim-audit": _cmd_claim_audit,
    "omega-k": _cmd_omega_k,
    "link": _cmd_link,
    "pi1": _cmd_pi1,
    "dehn-sample": _cmd_dehn_sample,
    "hyp-estimate": _cmd_hyp_estimate,
}


# -- job schema -------------------------------------------------------------

with open(os.path.join(os.path.dirname(__file__), "jobspec.schema.json")) as _schema:
    JOBSPEC_SCHEMA = json.load(_schema)
_VALIDATOR = jobschema.Validator(JOBSPEC_SCHEMA)


# -- serialization and dispatch ---------------------------------------------


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _render(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"


def _atomic_write(path, text):
    target = os.path.abspath(path)
    d = os.path.dirname(target)
    os.makedirs(d, exist_ok=True)
    n = 0
    while True:
        tmp = os.path.join(d, f".gogtool-{os.getpid()}-{n}")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
            break
        except FileExistsError:
            n += 1
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_job(path):
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise JobError(f"{path}: {exc.strerror or exc}") from exc
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise JobError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    best = _VALIDATOR.best_match(spec)
    if best is not None:
        raise JobError(f"{path}: schema violation at {best.json_path}: "
                       f"{best.message}")
    return raw, spec


def _provenance(raw, spec, ctx):
    import hashlib

    return {
        "tool": "gogtools",
        "version": __version__,
        "command": spec["command"],
        "spec_digest": hashlib.sha256(raw).hexdigest(),
        "seeds": ctx["seeds"],
        "caps": ctx["caps"],
    }


def run(path):
    """Execute one job file; returns the process exit code."""
    try:
        raw, spec = _load_job(path)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    command = spec["command"]
    output = spec["output"]
    params = spec["parameters"]
    ctx = {"seeds": {}, "caps": {}}

    def emit(result, extras, error=None):
        report = {"command": command,
                  "provenance": _provenance(raw, spec, ctx)}
        if error is not None:
            report["error"] = error
        if result is not None:
            report["result"] = result
        _atomic_write(output["report"], _render(report))
        written = [output["report"]]
        for slot, content in extras.items():
            if slot in output:
                text = content if isinstance(content, str) else _render(content)
                _atomic_write(output[slot], text)
                written.append(output[slot])
        # an error report stands alone: the other slots are not written
        for slot in output:
            if error is None and slot != "report" and slot not in extras:
                raise JobError(f"command {command} produces no {slot!r} output")
        return written

    try:
        result, extras, summary = COMMANDS[command](params, ctx)
        written = emit(result, extras)
    except CapExceeded as exc:
        emit(None, {}, error={"type": "cap-exceeded", "message": str(exc),
                              "detail": exc.detail})
        print(f"{command}: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except UnsupportedInput as exc:
        emit(None, {}, error={"type": "unsupported", "message": str(exc)})
        print(f"{command}: unsupported input: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        traceback.print_exc()
        emit(None, {}, error={"type": "internal", "message": str(exc)})
        print(f"{command}: internal error: {exc}", file=sys.stderr)
        return 5

    print(f"{command}: {summary} -> {', '.join(written)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gogtool",
        description="run one JSON job specification against the toolkit",
    )
    parser.add_argument("job", nargs="?", help="path to the job file")
    parser.add_argument("--print-schema", action="store_true",
                        help="print the job schema and exit")
    args = parser.parse_args(argv)
    if args.print_schema:
        sys.stdout.write(_render(JOBSPEC_SCHEMA))
        return 0
    if args.job is None:
        parser.error("a job file is required unless --print-schema is given")
    return run(args.job)


if __name__ == "__main__":
    sys.exit(main())
