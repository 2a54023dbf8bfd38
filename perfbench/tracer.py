"""Spans around the public functions of every ``gogtools`` module.

A :class:`Tracer` replaces each function listed in ``SPANS`` with a wrapper,
in every ``gogtools`` module namespace that binds it (``from .gog import
reduce_word`` makes a second binding in each importing module), and on the
class for methods.  Each call records one span ``(name, start, end,
parent)`` in memory; :func:`write` writes them out and
:func:`merge` turns them into per-span self times and counts.

Counts that a span cannot see from its own timing are taken at the same
boundary from the call's argument or result (input syllables, ball
vertices, Dehn area, oracle method).  They depend only on the inputs, so two
traced runs of one seed give the same counts.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# module -> functions ("Class.method" for methods) that get a span.
SPANS = {
    "cli": ["run", "_load_job"],
    "gog": ["reduce_word", "cyclically_reduce", "words_equal",
            "fix_transversals", "amalgam", "free_product", "hnn_sub"],
    "finite": ["make_cyclic", "make_dihedral", "subgroup_generated",
               "left_transversal", "left_cosets", "right_cosets"],
    "tree": ["build_tree_ball", "canonical_coset_word", "canonical_edge_word",
             "stabilizer", "geodesic"],
    "cayley_abels": ["quotient_tree_ball", "coset_graph_ball",
                     "check_ca_conditions", "compare_balls_qi"],
    "smallcanc": ["pieces", "word_power", "symmetrize", "dehn_reduce",
                  "KernelOracle.__init__", "KernelOracle.certificate",
                  "thinness_incidence", "presentation_complex_ball",
                  "compute_M", "check_cprime", "check_M_thin", "claim_audit",
                  "evaluation_wp", "replay_trace"],
    "complexes": ["hyperbolicity_estimate", "dehn_function_sample", "omega_k",
                  "link", "link_component_correspondence", "pi1_presentation",
                  "abelianization", "bounded_trivial", "check_complex"],
    "fineness": ["fineness_report", "wz_chain", "attach_edge_orbit",
                 "qi_certificate", "escaping_vectors",
                 "enumerate_escaping_paths"],
    "concrete": ["generated_handle", "trivial_handle"],
}

# Span names that differ from "module.function".
RENAME = {
    "cli._load_job": "cli.schema_validate",
    "smallcanc.KernelOracle.__init__": "smallcanc.KernelOracle",
    "smallcanc.KernelOracle.certificate": "smallcanc.certificate",
}


# Each counter sees (tracer, args, result) at the span's exit, each BEFORE
# hook (tracer, args, kwargs) at its entry.  Both must stay O(1) or small
# against the call, since their cost lands in the caller's span.


def _count_reduce(tr, args, result):
    # syllable slots of the input: one per edge plus the head
    tr.counts["gog.reduce_word.syllables_in"] += len(args[0].pairs) + 1


def _count_vertices(key):
    def count(tr, args, result):
        tr.counts[key] += len(result.verts)
    return count


def _count_pieces(tr, args, result):
    tr.piece_sets.add(tuple(args[0].members))
    tr.counts["smallcanc.pieces.distinct"] = len(tr.piece_sets)


def _count_dehn(tr, args, result):
    tr.counts["smallcanc.dehn_reduce.area"] += result.area


def _count_certificate(tr, args, result):
    tr.counts["smallcanc.certificate.method." + result["method"]] += 1


def _count_hyperbolicity(tr, args, result):
    tr.counts["complexes.hyperbolicity_estimate.quadruples"] += \
        result["quadruples"]


def _count_wp_arg(tr, args, kwargs):
    """Count calls of the word-problem callable handed to the quotient ball,
    whoever hands it in (4th positional argument or ``wp=``)."""
    if len(args) > 3 and args[3] is not None:
        args = args[:3] + (tr.count_wp(args[3]),) + args[4:]
    elif kwargs.get("wp") is not None:
        kwargs["wp"] = tr.count_wp(kwargs["wp"])
    return args, kwargs


BEFORE = {"cayley_abels.quotient_tree_ball": _count_wp_arg}

COUNTERS = {
    "gog.reduce_word": _count_reduce,
    "smallcanc.pieces": _count_pieces,
    "smallcanc.dehn_reduce": _count_dehn,
    "smallcanc.certificate": _count_certificate,
    "tree.build_tree_ball": _count_vertices("tree.build_tree_ball.vertices"),
    "cayley_abels.quotient_tree_ball":
        _count_vertices("cayley_abels.quotient_tree_ball.vertices"),
    "complexes.hyperbolicity_estimate": _count_hyperbolicity,
}


class Tracer:
    """In-memory span recorder; :meth:`install` patches, :meth:`remove`
    restores every binding it replaced."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = Counter()
        self.piece_sets = set()
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        before = BEFORE.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every function in ``SPANS`` that the package still has;
        a name the package no longer defines is skipped."""
        mods = {name: importlib.import_module("gogtools." + name)
                for name in SPANS}
        bound = [m for key, m in sys.modules.items()
                 if key.startswith("gogtools.") and m is not None]
        for mod_name, funcs in SPANS.items():
            mod = mods[mod_name]
            for fname in funcs:
                full = f"{mod_name}.{fname}"
                span = RENAME.get(full, full)
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name, None)
                    if cls is None or meth not in cls.__dict__:
                        continue
                    self._patch(cls, meth, self._wrap(span, cls.__dict__[meth]))
                    continue
                fn = mod.__dict__.get(fname)
                if fn is None:
                    continue
                traced = self._wrap(span, fn)
                for m in bound:
                    for attr, val in list(m.__dict__.items()):
                        if val is fn:
                            self._patch(m, attr, traced)
        gw = getattr(mods["gog"], "GroupWord", None)
        if gw is not None:
            init = gw.__dict__["__init__"]
            counts = self.counts

            def counted_init(self_, *args, **kwargs):
                counts["gog.words_built"] += 1
                init(self_, *args, **kwargs)

            self._patch(gw, "__init__", counted_init)

    def remove(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def count_wp(self, wp):
        """Wrap a word-problem callable so its calls and true verdicts are
        counted (``cayley_abels.wp.*``)."""
        counts = self.counts

        def counted(w):
            verdict = wp(w)
            counts["cayley_abels.wp.calls"] += 1
            counts["cayley_abels.wp.hits"] += bool(verdict)
            return verdict

        return counted

    def dump(self):
        """The recorded spans and counts as one JSON-ready dict."""
        return {"names": self.names, "spans": self.spans,
                "counts": dict(self.counts)}


def merge(dumps):
    """Per-span-name totals over several dumps: calls, total and self
    seconds.  Self time is a span's duration minus its children's."""
    calls, total, self_s = Counter(), Counter(), Counter()
    counts = Counter()
    for d in dumps:
        names, spans = d["names"], d["spans"]
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (nid, start, end, _parent) in enumerate(spans):
            name = names[nid]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        counts.update(d["counts"])
    return calls, total, self_s, counts


def write(path, tracer):
    with open(path, "w") as f:
        json.dump(tracer.dump(), f, separators=(",", ":"))
