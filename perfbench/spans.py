"""Per-layer tracing from outside the package.

``install`` replaces public functions of the ``fissile`` modules by wrappers
that record one span per call: the layer name, start and end, and the span
that was open when the call began.  A function imported by name into other
modules (``from .simplicial import wedge``) is bound separately in each of
them, so every binding that is the same function object gets the wrapper.
Spans stay in flat arrays in memory; ``counts`` aggregates them into
calls, inclusive seconds and self seconds per layer, ``merge`` combines
the counts of the processes of one iteration, and ``write`` dumps the
spans when the process ends.
"""

import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute, fields).  An attribute "Class.method"
# wraps that method on the class, where every caller finds it.
LAYERS = (
    ("simplicial.wedge", "simplicial", "wedge", ("calls", "s", "self_s")),
    ("simplicial.set_build", "simplicial", "FiniteSimplicialSet.__init__", ("calls", "s", "self_s")),
    ("simplicial.morphism_build", "simplicial", "SMorphism.__init__", ("calls", "s", "self_s")),
    ("canon.ckey", "canon", "ckey", ("calls", "s", "self_s")),
    ("witnesses.wedge_witness", "witnesses", "wedge_witness", ("calls", "s", "self_s")),
    ("witnesses.map_witness", "witnesses", "map_witness", ("calls", "s", "self_s")),
    ("witnesses.cone_witness", "witnesses", "cone_witness", ("calls", "s", "self_s")),
    ("witnesses.restrict_witness", "witnesses", "restrict_witness", ("calls", "s", "self_s")),
    ("witnesses.verify_witness", "witnesses", "verify_witness", ("calls", "s", "self_s")),
    ("wedge.compact_witness", "wedge", "compact_witness", ("calls", "s", "self_s")),
    ("wedge.combine_over_layout", "wedge", "combine_over_layout", ("calls", "s", "self_s")),
    ("wedge.WedgeContext", "wedge", "WedgeContext.__init__", ("s",)),
    ("ensembles.combining_product", "ensembles", "combining_product", ("calls", "s", "self_s")),
    ("ensembles.map_ensemble", "ensembles", "map_ensemble", ("calls", "s", "self_s")),
    ("ensembles.subgroup_membership", "ensembles", "subgroup_membership", ("calls", "s", "self_s")),
    ("artifacts.write_pair_artifacts", "artifacts", "write_pair_artifacts", ("s",)),
    ("artifacts.write_q_artifacts", "artifacts", "write_q_artifacts", ("s",)),
    ("artifacts.MorphismStore.load", "artifacts", "MorphismStore.load", ("s",)),
    ("artifacts.witness_from_json", "artifacts", "witness_from_json", ("s",)),
    ("posets.nabla", "posets", "nabla", ("calls", "s", "self_s")),
    ("posets.nabla_inverse", "posets", "nabla_inverse", ("calls", "s", "self_s")),
    ("posets.lift_limit", "posets", "lift_limit", ("calls", "s", "self_s")),
    ("fissilizer.fissilize", "fissilizer", "fissilize", ("calls", "s", "self_s")),
    ("fissilizer.is_fissile", "fissilizer", "is_fissile", ("calls", "s", "self_s")),
    ("fissilizer.check_fissilizer_defect", "fissilizer", "check_fissilizer_defect", ("calls", "s", "self_s")),
    ("layouts.layout_geq", "layouts", "layout_geq", ("calls",)),
    ("chained.ideal_membership", "chained", "ideal_membership", ("calls", "s", "self_s")),
)

# Waste ratios and their base counts, computed in the wrappers from
# arguments and return values only.
RATIOS = (
    ("simplicial.wedge.distinct", "count"),
    ("simplicial.wedge.distinct_ratio", "ratio"),
    ("wedge.compact_witness.blocks_in", "count"),
    ("wedge.compact_witness.blocks_out", "count"),
    ("wedge.compact_witness.keep_ratio", "ratio"),
)

UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = [(f"{prefix}.{f}", UNITS[f]) for prefix, _, _, fields in LAYERS for f in fields]
    return out + list(RATIOS)


def merge(processes):
    """Per-layer metrics of one iteration from the counts of its traced
    processes: counts and seconds add up, ratios are taken over the sums."""
    total, parts = {}, set()
    for values, wedge_parts in processes:
        for key, val in values.items():
            total[key] = total.get(key, 0) + val
        parts.update(wedge_parts)
    calls = total.get("simplicial.wedge.calls", 0)
    blocks_in = total.get("wedge.compact_witness.blocks_in", 0)
    total["simplicial.wedge.distinct"] = len(parts)
    total["simplicial.wedge.distinct_ratio"] = len(parts) / calls if calls else 0.0
    total["wedge.compact_witness.keep_ratio"] = (
        total.get("wedge.compact_witness.blocks_out", 0) / blocks_in if blocks_in else 0.0
    )
    return {name: total[name] for name, _ in metric_names()}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active = []
        self.wedge_keys = set()
        self.blocks_in = 0
        self.blocks_out = 0
        self.t0 = perf_counter()

    def wrap(self, name, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        self.active.append(0)
        name_of, parent, outer = self.name_of, self.parent, self.outer
        start, end, stack, active = self.start, self.end, self.stack, self.active

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            t = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t
                active[nid] -= 1
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return functools.update_wrapper(traced, fn)

    def _observe_wedge(self, args, kwargs, out):
        parts = kwargs["parts"] if "parts" in kwargs else args[0]
        self.wedge_keys.add(json.dumps(self._jsonable([p.label for p in parts])))

    def _observe_compact(self, args, kwargs, out):
        self.blocks_in += len(args[0].entries)
        self.blocks_out += len(out.entries)

    def install(self, roots):
        """Wrap every layer in LAYERS at each of its bindings in the loaded
        modules whose top-level package is one of ``roots``."""
        from fissile.canon import jsonable

        self._jsonable = jsonable
        observers = {
            "simplicial.wedge": self._observe_wedge,
            "wedge.compact_witness": self._observe_compact,
        }
        for _, mod_name, _, _ in LAYERS:
            importlib.import_module(f"fissile.{mod_name}")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] in roots]
        for prefix, mod_name, attr, _ in LAYERS:
            mod = sys.modules[f"fissile.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self.wrap(prefix, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(prefix, raw))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(prefix, orig, observers.get(prefix))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)

    def counts(self):
        """Calls, inclusive and self seconds per layer over every span so far,
        the block counts of ``compact_witness``, and the distinct part-label
        tuples of ``simplicial.wedge``."""
        n = len(self.name_of)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        values = {}
        for prefix in self.names:
            values.update({f"{prefix}.calls": 0, f"{prefix}.s": 0.0, f"{prefix}.self_s": 0.0})
        for i in range(n):
            prefix = self.names[self.name_of[i]]
            dur = end[i] - start[i]
            values[f"{prefix}.calls"] += 1
            values[f"{prefix}.self_s"] += dur - child[i]
            if self.outer[i]:
                values[f"{prefix}.s"] += dur
        values["wedge.compact_witness.blocks_in"] = self.blocks_in
        values["wedge.compact_witness.blocks_out"] = self.blocks_out
        return values, sorted(self.wedge_keys)

    def write(self, path):
        """Dump every span as tab-separated name, parent, start and end."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.name_of)):
                fh.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - self.t0:.7f}\t{self.end[i] - self.t0:.7f}\n"
                )
