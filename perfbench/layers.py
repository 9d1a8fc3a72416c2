"""Which program functions the traced run wraps, and how its spans become
the per-layer metrics named in BENCHMARK.json.

A layer is a module under ``src/leraytop``.  ``rng`` only feeds the
generators and ``cli`` is off the timed path, so neither is traced.
"""
from __future__ import annotations

import sys

from leraytop import core, helly, homology, icss, io_json, leray, multiproj

from tracer import Tracer, self_times

LAYERS = (io_json, core, homology, leray, multiproj, icss, helly)
LAYER_NAMES = tuple(m.__name__.rsplit(".", 1)[-1] for m in LAYERS)

# Leaf helpers called hundreds of thousands of times: counted, not spanned,
# so the trace stays small and its overhead bounded.
COUNT_ONLY = ("core.as_simplex", "helly.box_meet", "helly.boxes_disjoint",
              "helly.make_box", "io_json.parse_rational", "icss.perm_sign")

ALL_SIMPLICES = "core.SimplicialComplex.all_simplices"


def _count_simplices(tracer, args, kwargs, out):
    tracer.count("simplices_enumerated", len(out))


def _count_rank_input(tracer, args, kwargs, out):
    rows = args[0] if args else kwargs["rows"]
    if not isinstance(rows, (list, tuple)):
        return                  # an iterator was consumed by the call
    tracer.count("rank_nnz_in", sum(map(len, rows)))
    tracer.counters["rank_rows_max"] = max(
        tracer.counters.get("rank_rows_max", 0), len(rows))


def _count_mpc_vertices(tracer, args, kwargs, out):
    tracer.count("mpc_vertices_out", out.complex.vertex_count)


def _count_alt_basis(tracer, args, kwargs, out):
    tracer.count("alt_basis_size", sum(len(v) for v in out.reps.values()))


def _keep_nerve(tracer, args, kwargs, out):
    tracer.counters.setdefault("nerve_results", []).append(out)


OBSERVERS = {
    ALL_SIMPLICES: _count_simplices,
    "homology.rank_of_rows": _count_rank_input,
    "multiproj.generalized_mpc": _count_mpc_vertices,
    "icss.alt_chain_complex": _count_alt_basis,
    "helly.nerve": _keep_nerve,
}


def make_tracer(extra_sites=()):
    """A tracer over every layer, rebinding names in every loaded
    ``leraytop`` module and in ``extra_sites``."""
    sites = [m for name, m in sorted(sys.modules.items())
             if m is not None and (name == "leraytop"
                                   or name.startswith("leraytop."))]
    return Tracer(LAYERS, sites + list(extra_sites),
                  methods=[(core.SimplicialComplex, "all_simplices")],
                  count_only=COUNT_ONLY, observers=OBSERVERS)


INSTANCE = "bench.instance"


def layer_metrics(tracer, outcomes, wall_s):
    """Per-layer metrics of one traced pass.

    ``outcomes[i]`` is "ok", "refused" or "failed" for instance i; the
    caller wraps each instance in an ``INSTANCE`` span.
    """
    spans = tracer.spans
    c = tracer.counters
    selfs = self_times(spans)
    total = {}
    self_by_name = {}
    for (name, start, end, _, _), s in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start)
        self_by_name[name] = self_by_name.get(name, 0.0) + s
    layer_self = {layer: 0.0 for layer in LAYER_NAMES}
    for name, s in self_by_name.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += s

    # links scanned by leray_by_links, and reduced_betti calls made there
    index_name = [sp[0] for sp in spans]
    scanned = betti_in_scan = 0
    for name, _, _, parent, _ in spans:
        if parent >= 0 and index_name[parent] == "leray.leray_by_links":
            if name == "core.link":
                scanned += 1
            elif name == "homology.reduced_betti":
                betti_in_scan += 1

    inst_time = {"ok": 0.0, "refused": 0.0, "failed": 0.0}
    for name, start, end, _, inst in spans:
        if name == INSTANCE:
            inst_time[outcomes[inst]] += end - start
    all_inst = sum(inst_time.values())

    nerve_simplices = sum(len(n.all_simplices())
                          for n in c.get("nerve_results", ()))
    m = {
        "io_json.parse_s": layer_self["io_json"],
        "core.link_s": total.get("core.link", 0.0),
        "core.link_calls": c.get("core.link.calls", 0),
        "core.subdivision_s": total.get("core.subdivision", 0.0),
        "core.simplices_enumerated": c.get("simplices_enumerated", 0),
        "homology.rank_s": total.get("homology.rank_of_rows", 0.0),
        "homology.rank_calls": c.get("homology.rank_of_rows.calls", 0),
        "homology.rank_nnz_in": c.get("rank_nnz_in", 0),
        "homology.rank_rows_max": c.get("rank_rows_max", 0),
        "homology.reduced_betti_self_s":
            layer_self["homology"] - self_by_name.get(
                "homology.rank_of_rows", 0.0),
        "homology.reduced_betti_calls":
            c.get("homology.reduced_betti.calls", 0),
        "leray.links_self_s": self_by_name.get("leray.leray_by_links", 0.0),
        "leray.cone_skip_ratio":
            1.0 - betti_in_scan / scanned if scanned else 0.0,
        "multiproj.mpc_s": total.get("multiproj.generalized_mpc", 0.0),
        "multiproj.mpc_calls": c.get("multiproj.generalized_mpc.calls", 0),
        "multiproj.mpc_vertices_out": c.get("mpc_vertices_out", 0),
        "multiproj.fiber_bound_s": total.get("multiproj.fiber_bound", 0.0),
        "icss.e1_page_calls": c.get("icss.e1_page.calls", 0),
        "icss.alt_chain_s": total.get("icss.alt_chain_complex", 0.0),
        "icss.alt_chain_calls": c.get("icss.alt_chain_complex.calls", 0),
        "icss.alt_basis_size": c.get("alt_basis_size", 0),
        "icss.refused_work_s": inst_time["refused"],
        "icss.useful_work_ratio":
            inst_time["ok"] / all_inst if all_inst else 0.0,
        "helly.validate_s": total.get("helly.make_fr_family", 0.0),
        "helly.box_meet_calls": c.get("helly.box_meet.calls", 0),
        "helly.nerve_s": total.get("helly.nerve", 0.0),
        "helly.nerve_simplices": nerve_simplices,
        "helly.helly_number_s": total.get("helly.helly_number", 0.0),
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
    }
    for layer in LAYER_NAMES:
        m[layer + ".self_s"] = layer_self[layer]
    m["bench.self_s"] = self_by_name.get(INSTANCE, 0.0)
    return m
