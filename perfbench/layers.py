"""Per-layer metrics of the traced run, and what each should move.

Layers are the ``gogtools`` modules.  ``LAYER_METRICS`` lists every metric
a run with ``--trace 1`` prints, in the order of ``BENCHMARK.json``, with
the end-to-end metric and workload it should move (``pass_s``,
``focus_s`` and ``rest_s`` are defined per workload in README.md).  Time
metrics come from spans; every count is an exact integer that depends only
on the inputs, so it repeats across traced runs of one seed.
"""

from __future__ import annotations

MODULES = ("cli", "gog", "finite", "tree", "cayley_abels", "smallcanc",
           "complexes", "fineness", "concrete")

_KERNEL_LONG = "focus_s on kernel (long words), focus_s on balls (short calls), focus_s on jobs"
_PIECES = "focus_s and rest_s on kernel; no change on balls"
_BUILD = "rest_s on kernel, focus_s on jobs"
_DECIDE = "focus_s on kernel, focus_s on jobs"
_THIN = "focus_s on jobs"
_QUOTIENT = "focus_s on balls, focus_s on jobs (Dehn-oracle ball)"
_TREE = "rest_s on balls"
_DELTA = "rest_s on balls, rest_s on jobs"
_FRONT = "rest_s on jobs, setup_s on jobs"

# (name, unit, better, moves)
LAYER_METRICS = [
    ("gog.reduce_word.calls", "count", "lower", _KERNEL_LONG),
    ("gog.reduce_word.self_s", "s", "lower", _KERNEL_LONG),
    ("gog.reduce_word.syllables_in", "count", "lower", _KERNEL_LONG),
    ("gog.reduce_word.us_per_syllable", "us", "lower", _KERNEL_LONG),
    ("gog.cyclically_reduce.calls", "count", "lower", _KERNEL_LONG),
    ("gog.cyclically_reduce.self_s", "s", "lower", _KERNEL_LONG),
    ("gog.words_built", "count", "lower", _KERNEL_LONG),
    ("smallcanc.pieces.calls", "count", "lower", _PIECES),
    ("smallcanc.pieces.self_s", "s", "lower", _PIECES),
    ("smallcanc.pieces.distinct_ratio", "ratio", "higher", _PIECES),
    ("smallcanc.word_power.calls", "count", "lower", _BUILD),
    ("smallcanc.word_power.self_s", "s", "lower", _BUILD),
    ("smallcanc.symmetrize.calls", "count", "lower", _BUILD),
    ("smallcanc.symmetrize.self_s", "s", "lower", _BUILD),
    ("smallcanc.KernelOracle.init_s", "s", "lower", _BUILD),
    ("smallcanc.dehn_reduce.calls", "count", "lower", _DECIDE),
    ("smallcanc.dehn_reduce.self_s", "s", "lower", _DECIDE),
    ("smallcanc.dehn_reduce.area", "count", "lower", _DECIDE),
    ("smallcanc.certificate.calls", "count", "lower", _DECIDE),
    ("smallcanc.certificate.self_s", "s", "lower", _DECIDE),
    ("smallcanc.certificate.method.trivial", "count", "higher", _DECIDE),
    ("smallcanc.certificate.method.abelianized-image", "count", "higher",
     _DECIDE),
    ("smallcanc.certificate.method.length-gate", "count", "higher", _DECIDE),
    ("smallcanc.certificate.method.dehn", "count", "lower", _DECIDE),
    ("smallcanc.thinness_incidence.self_s", "s", "lower", _THIN),
    ("smallcanc.presentation_complex_ball.self_s", "s", "lower", _THIN),
    ("smallcanc.compute_M.self_s", "s", "lower", _THIN),
    ("smallcanc.check_cprime.self_s", "s", "lower", _THIN),
    ("cayley_abels.quotient_tree_ball.self_s", "s", "lower", _QUOTIENT),
    ("cayley_abels.quotient_tree_ball.vertices", "count", "lower", _QUOTIENT),
    ("cayley_abels.wp.calls", "count", "lower", _QUOTIENT),
    ("cayley_abels.wp.hit_ratio", "ratio", "higher", _QUOTIENT),
    ("cayley_abels.coset_graph_ball.self_s", "s", "lower", _TREE),
    ("cayley_abels.check_ca_conditions.self_s", "s", "lower", _FRONT),
    ("tree.build_tree_ball.self_s", "s", "lower", _TREE),
    ("tree.build_tree_ball.vertices", "count", "lower", _TREE),
    ("tree.canonical_coset_word.calls", "count", "lower", _TREE),
    ("tree.canonical_coset_word.self_s", "s", "lower", _TREE),
    ("complexes.hyperbolicity_estimate.self_s", "s", "lower", _DELTA),
    ("complexes.hyperbolicity_estimate.quadruples", "count", "lower", _DELTA),
    ("complexes.dehn_function_sample.self_s", "s", "lower", _DELTA),
    ("complexes.omega_k.self_s", "s", "lower", _DELTA),
    ("fineness.fineness_report.self_s", "s", "lower", _FRONT),
    ("fineness.wz_chain.self_s", "s", "lower", _FRONT),
    ("cli.run.self_s", "s", "lower", _FRONT),
    ("cli.schema_validate_s", "s", "lower", _FRONT),
] + [
    (f"{m}.self_s", "s", "lower", "the end-to-end metrics of every workload "
     "that calls the module") for m in MODULES
] + [
    ("trace.spans", "count", "lower", "none: size of the trace"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: traced pass time over untraced pass time, minus one"),
]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_values(calls, total, self_s, counts, overhead):
    """Every metric of ``LAYER_METRICS`` from merged spans and counts."""
    v = {}
    for name, unit, _better, _moves in LAYER_METRICS:
        if name.endswith(".calls") and not name.startswith("cayley_abels.wp"):
            v[name] = int(calls[name[:-len(".calls")]])
        elif name.endswith(".self_s") and name.count(".") == 2:
            v[name] = self_s[name[:-len(".self_s")]]
        elif name.endswith(".self_s"):
            mod = name[:-len(".self_s")]
            v[name] = sum(t for span, t in self_s.items()
                          if span.split(".")[0] == mod)
        elif unit == "count":
            v[name] = int(counts[name])
    v["gog.reduce_word.us_per_syllable"] = 1e6 * _ratio(
        total["gog.reduce_word"], counts["gog.reduce_word.syllables_in"])
    v["smallcanc.pieces.distinct_ratio"] = _ratio(
        counts["smallcanc.pieces.distinct"], calls["smallcanc.pieces"])
    v["smallcanc.KernelOracle.init_s"] = total["smallcanc.KernelOracle"]
    v["cayley_abels.wp.calls"] = int(counts["cayley_abels.wp.calls"])
    v["cayley_abels.wp.hit_ratio"] = _ratio(counts["cayley_abels.wp.hits"],
                                            counts["cayley_abels.wp.calls"])
    v["cli.schema_validate_s"] = total["cli.schema_validate"]
    v["trace.spans"] = int(sum(calls.values()))
    v["trace.overhead_frac"] = overhead
    return v
