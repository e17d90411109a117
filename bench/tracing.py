"""Spans around the calls the benchmark makes into fchi's layers.

``traced_request`` replays one request as the public call sequence that
``batch_evaluate`` runs inside (ratio bounds, basis, coefficient loop,
``converge``, ``remainder_bound``) and records one span per call.  Spans
are (name, tag, start, end, parent, request id) lists kept in memory; the
benchmark writes them out when it ends.  Layers are fchi's modules.  A
span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import replace

import fchi

from workloads import Request

# provenance(pair) -> the tag used in per-route basis metrics
ROUTE = {
    "discrete-exact": "discrete_exact",
    "discrete-float": "discrete_float",
    "aef-closed-form": "aef",
    "aef-closed-form-mixture": "mixture",
}

# span name -> the layer whose share of request time it counts toward
LAYER_OF = {
    "families.pair_ratio_bounds": "families",
    "generators.coeff": "generators.coeff",
    "generators.conjugate": "generators.conjugate",
    "chi.compute_basis": "chi",
    "expansion.converge": "expansion",
    "expansion.remainder_bound": "expansion",
    "reference.exact": "reference",
    "reference.quadrature": "reference",
}
SHARES = ("families", "generators.coeff", "generators.conjugate", "chi",
          "expansion", "reference", "other")

_NAME, _TAG, _START, _END, _PARENT, _RID = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.err_est_max = 0.0
        self._stack = []

    def begin(self, name: str, rid: int, tag: str = "") -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, tag, time.perf_counter(), 0.0, parent, rid])

    def end(self) -> None:
        self.spans[self._stack.pop()][_END] = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "tag", "start", "end", "parent",
                                  "request"], "spans": self.spans}, fh)


REFERENCES = {
    "alpha_aef": lambda pair: fchi.exact_alpha_aef(
        3, pair.fam, pair.theta_p, pair.theta_q),
    "alpha_discrete": lambda pair: fchi.exact_f_divergence_discrete(
        fchi.alpha_generator(3), pair.p, pair.q),
    "reverse_kl": lambda pair: fchi.exact_f_divergence_discrete(
        fchi.kl(), pair.q, pair.p),
    "quadrature_kl": lambda pair: fchi.quadrature_f_divergence(fchi.kl(), pair),
}


def run_request(req: Request):
    """The untraced request: what a caller of the library does."""
    reports = fchi.batch_evaluate(req.pair, req.generators(), req.k)
    ref = None if req.reference is None else REFERENCES[req.reference](req.pair)
    return reports, ref


def traced_request(req: Request, tr: Tracer, rid: int):
    """``run_request`` decomposed into public calls, one span per call.

    Returns the same (reports, reference) as ``run_request``: the remainder
    caps computed here are put back into each report with
    ``dataclasses.replace``.
    """
    count = tr.counts
    tr.begin("request", rid)
    tr.begin("families.pair_ratio_bounds", rid)
    try:
        bounds = fchi.pair_ratio_bounds(req.pair)
    except fchi.InputError:
        bounds = None
    tr.end()
    count["families.pair_ratio_bounds.calls"] += 1

    route = ROUTE[fchi.provenance(req.pair)]
    tr.begin("chi.compute_basis", rid, route)
    try:
        basis = fchi.compute_basis(req.pair, req.k)
        failure = None
    except (fchi.DivergenceError, fchi.OverflowSaturationError) as exc:
        basis = None
        failure = exc
    tr.end()
    count["chi.compute_basis.calls"] += 1
    count["chi.compute_basis.orders"] += req.k - 1
    count["chi.compute_basis.failed"] += failure is not None

    gens = []
    for g in req.gens:
        if req.conjugate:
            tr.begin("generators.conjugate", rid)
            g = fchi.conjugate_generator(g, req.k)
            name = "generators.conjugate"
        else:
            tr.begin("generators.coeff", rid)
            name = "generators.coeff"
        if failure is None:
            for i in range(2, req.k + 1):
                fchi.catalog_coeff(g, i)
        tr.end()
        count[name + ".calls"] += 1 if req.conjugate else req.k - 1
        gens.append(g)

    reports = {}
    for g in gens:
        if failure is not None:
            reports[g.name] = fchi.ExpansionReport(
                generator=g.name, verdict="diverging",
                note=f"basis construction failed: {failure}")
            continue
        tr.begin("expansion.converge", rid)
        rep = fchi.converge(g, basis)
        tr.end()
        count["expansion.converge.calls"] += 1
        if bounds is not None:
            tr.begin("expansion.remainder_bound", rid)
            caps = tuple(fchi.remainder_bound(g, k, bounds)
                         for k in basis.orders)
            tr.end()
            count["expansion.remainder_bound.calls"] += len(caps)
            count["expansion.remainder_bound.unbounded"] += sum(
                not math.isfinite(c) for c in caps)
            rep = replace(rep, remainder_bounds=caps)
        reports[g.name] = rep
    for rep in reports.values():
        count[f"expansion.verdict.{rep.verdict}"] += 1

    ref = None
    if req.reference == "quadrature_kl":
        tr.begin("reference.quadrature", rid)
        ref = REFERENCES[req.reference](req.pair)
        tr.end()
        count["reference.quadrature.calls"] += 1
        tr.err_est_max = max(tr.err_est_max, ref[1])
    elif req.reference is not None:
        tr.begin("reference.exact", rid)
        ref = REFERENCES[req.reference](req.pair)
        tr.end()
        count["reference.exact.calls"] += 1
    tr.end()
    return reports, ref


def layer_metrics(tr: Tracer, per_pass: int, scale) -> dict:
    """Per-pass busy times and counts, plus each layer's share of request time.

    Request ids count requests from 0, so a span's pass is its request id
    divided by the pass length.  A busy time is its fastest pass, with
    each span multiplied by ``scale(start, seconds)`` (the host speed
    factor around it); a count is its total over the passes, which repeat
    the same requests.  Shares compare spans of the same moment, unscaled.
    """
    passes = 1 + max(s[_RID] for s in tr.spans) // per_pass
    busy = defaultdict(lambda: [0.0] * passes)
    self_time = [s[_END] - s[_START] for s in tr.spans]
    for s in tr.spans:
        dur = s[_END] - s[_START]
        if s[_PARENT] >= 0:
            self_time[s[_PARENT]] -= dur
        p = s[_RID] // per_pass
        ref = dur * scale(s[_START], dur)
        busy[s[_NAME]][p] += ref
        if s[_TAG]:
            busy[f"{s[_NAME]}.{s[_TAG]}"][p] += ref
    by_layer = defaultdict(float)
    for s, own in zip(tr.spans, self_time):
        by_layer[LAYER_OF.get(s[_NAME], "other")] += own
    total = sum(s[_END] - s[_START] for s in tr.spans if s[_NAME] == "request")

    out = {}
    names = list(LAYER_OF) + [f"chi.compute_basis.{r}" for r in ROUTE.values()]
    for name in names:
        out[f"{name}.busy_ms"] = 1e3 * min(busy[name])
    for key, value in tr.counts.items():
        out[key] = value / passes
    out["reference.quadrature.err_est_max"] = tr.err_est_max
    for layer in SHARES:
        out[f"share.{layer}"] = by_layer[layer] / total
    return out
