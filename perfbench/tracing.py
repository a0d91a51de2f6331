"""Span tracing of scx's layers, installed from outside the program.

``Tracer.install`` wraps the public functions and methods named in
``HOOKS`` at every module binding of the same object (``gf2_rank`` is
bound in both ``scx.kernels`` and ``scx.homology``, for example), so calls
through any import path are seen.  Only public names are touched; a name
that no longer exists is reported as an absent hook, not an error.

Spans (name, start, end, parent) go into flat arrays in memory while a
pass runs and are written out afterwards.  Wrappers record nothing while
no root span is open, so parsing and output checks outside the timed
passes stay untraced.  A generator hook opens one span per resumption, so
time spent inside the generator is charged to it and not to the consumer.

A span's self time is its duration minus the durations of its direct
children.  Root spans are the benchmark's own passes; their self time is
charged to the ``analysis`` layer, the program's entry layer, so the self
times of all layers add up to the traced wall time exactly.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

LAYERS = ("complexes", "banner", "manifold", "homology", "kernels", "graphs", "analysis")


def _facets(c):
    return c.facets


def _link_key(args):
    c, face = args[0], args[1]
    return c.facets, tuple(sorted(str(v) for v in face))


def _graph_key(args):
    g = args[0]
    return g.labels, g.adj


def _rows(args):
    rows = args[0]
    return len(rows) if hasattr(rows, "__len__") else 0


def _arcs(args):
    tails = args[1]
    return len(tails) if hasattr(tails, "__len__") else 0


@dataclass(frozen=True)
class Hook:
    """A public function (``qualname`` in ``module``) to wrap.

    ``key`` maps the call's arguments to a value identifying its input,
    for the distinct-input ratios; ``size`` maps them to a work count
    summed over calls; ``tag`` derives a span-name suffix from them.
    """

    module: str
    qualname: str
    key: Callable | None = None
    size: Callable | None = None
    tag: Callable | None = None

    @property
    def layer(self) -> str:
        return self.module.rsplit(".", 1)[-1]

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.qualname}"


_SC = "SimplicialComplex"
HOOKS = (
    Hook("scx.complexes", f"{_SC}.__init__"),
    Hook("scx.complexes", f"{_SC}.link", key=_link_key),
    *(Hook("scx.complexes", f"{_SC}.{m}")
      for m in ("star", "antistar", "induced", "cone", "suspension", "boundary", "tilde")),
    Hook("scx.banner", "cliques_ids"),
    Hook("scx.banner", "cliques"),
    Hook("scx.banner", "classify", key=lambda a: _facets(a[0])),
    Hook("scx.banner", "banner_number"),
    *(Hook("scx.banner", f) for f in (
        "contains_simplex_boundary", "banner_or_triangle", "is_triangle_cycle",
        "classify_tilde_cliques", "is_spanning", "is_critical")),
    Hook("scx.manifold", "manifold_class", key=lambda a: _facets(a[0])),
    *(Hook("scx.manifold", f) for f in (
        "is_pseudomanifold", "is_strongly_connected", "facet_graph", "is_normal",
        "verify_barnette_antistar", "is_homology_manifold", "is_homology_sphere",
        "find_shelling", "verify_shelling")),
    *(Hook("scx.homology", f) for f in ("z2_betti", "unreduced_betti", "z2_relative_betti")),
    Hook("scx.kernels", "gf2_rank", size=_rows),
    Hook("scx.kernels", "unit_maxflow", size=_arcs),
    Hook("scx.graphs", "skeleton"),
    Hook("scx.graphs", "vertex_connectivity", key=_graph_key),
    *(Hook("scx.graphs", f) for f in (
        "local_connectivity", "independent_paths", "liu_scan", "neighborhood",
        "outside_subcomplex", "is_outside_connected")),
    *(Hook("scx.analysis", f) for f in ("analyze", "report_json", "report_from_json",
                                        "verify_corpus")),
    Hook("scx.analysis", "verify_property", tag=lambda a: str(a[0])),
)


def _resolve(home, qualname: str):
    """The (owner, attribute) of ``qualname`` in module ``home``, or None when absent."""
    owner = home
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None


class Tracer:
    """Holds the spans of traced passes and the patches that record them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_hook: list[int] = []  # span name id -> hook index (-1: root)
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.calls = [0] * len(HOOKS)
        self.yields = [0] * len(HOOKS)
        self.sizes = [0] * len(HOOKS)
        self.keyed: list[list] = [[] for _ in HOOKS]
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _name_id(self, name: str, hook: int) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_hook.append(hook)
        return i

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def root(self, name: str) -> int:
        """Open a root span; close it with ``close``."""
        return self.open(self._name_id(name, -1))

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook at each binding in the loaded public scx modules."""
        mods = {n: m for n, m in sys.modules.items()
                if (n == "scx" or n.startswith("scx.")) and not n.rsplit(".", 1)[-1].startswith("_")}
        for h, hook in enumerate(HOOKS):
            home = mods.get(hook.module)
            path = _resolve(home, hook.qualname) if home is not None else None
            if path is None:
                self.absent.append(hook.name)
                continue
            owner, attr = path
            fn = getattr(owner, attr)
            wrapped = self._wrap(h, hook, fn)
            if owner is home:
                for mod in mods.values():
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, name, fn))
                            setattr(mod, name, wrapped)
            else:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches.clear()

    def _wrap(self, h: int, hook: Hook, fn):
        tracer = self
        base = self._name_id(hook.name, h)
        keyed, calls, sizes, yields = self.keyed[h], self.calls, self.sizes, self.yields
        key, size, tag = hook.key, hook.size, hook.tag

        def span_id(args):
            if tag is None:
                return base
            return tracer._name_id(f"{hook.name}[{tag(args)}]", h)

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tracer.stack:
                    yield from it
                    return
                sid = span_id(args)
                calls[h] += 1
                while True:
                    i = tracer.open(sid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(i)
                    yields[h] += 1
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            i = tracer.open(span_id(args))
            calls[h] += 1
            if key is not None:
                keyed.append(args)
            if size is not None:
                sizes[h] += size(args)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return wrapper

    # -- derived figures --------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write_spans(self, path: str) -> None:
        """One span per line: index, name, start, end, parent (-1 for roots)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.parent[i]}\n")


class Summary:
    """Per-name and per-layer totals of one tracer's spans."""

    def __init__(self, tr: Tracer):
        own = tr.self_times()
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.layer_self_s = dict.fromkeys(LAYERS, 0.0)
        self.wall_s = 0.0
        in_kappa = 0
        kappa_id = tr._name_ids.get("graphs.vertex_connectivity", -2)
        flow_id = tr._name_ids.get("kernels.unit_maxflow", -2)
        kappa_spans = {i for i in range(len(tr.start)) if tr.span_name[i] == kappa_id}
        for i in range(len(tr.start)):
            sid = tr.span_name[i]
            name = tr.names[sid]
            h = tr.name_hook[sid]
            dur = tr.end[i] - tr.start[i]
            if tr.parent[i] < 0:
                self.wall_s += dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own[i]
            self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
            layer = HOOKS[h].layer if h >= 0 else "analysis"
            self.layer_self_s[layer] = self.layer_self_s.get(layer, 0.0) + own[i]
            if sid == flow_id:
                p = tr.parent[i]
                while p >= 0 and p not in kappa_spans:
                    p = tr.parent[p]
                in_kappa += p >= 0
        self.flows_in_kappa = in_kappa
        self.hook_calls = {HOOKS[h].name: tr.calls[h] for h in range(len(HOOKS))}
        self.yields = {HOOKS[h].name: tr.yields[h] for h in range(len(HOOKS))}
        self.sizes = {HOOKS[h].name: tr.sizes[h] for h in range(len(HOOKS))}
        self.distinct_ratio: dict[str, float] = {}
        for h, hook in enumerate(HOOKS):
            if hook.key is not None and tr.keyed[h]:
                keys = {hook.key(args) for args in tr.keyed[h]}
                self.distinct_ratio[hook.name] = len(keys) / len(tr.keyed[h])
        self.absent = list(tr.absent)
        self.spans = len(tr.start)

    def table(self) -> str:
        """Self time per layer, then per traced name, largest first."""
        lines = [f"traced wall {self.wall_s:.6f} s in {self.spans} spans"]
        for layer in LAYERS:
            t = self.layer_self_s[layer]
            lines.append(f"  {layer:<10} self {t:10.6f} s  {100 * t / self.wall_s:5.1f} %")
        lines.append(f"  {'sum':<10} self {sum(self.layer_self_s.values()):10.6f} s")
        lines.append(f"  {'name':<44} {'calls':>8} {'self_s':>10} {'incl_s':>10}")
        for name in sorted(self.calls, key=lambda n: -self.self_s[n]):
            calls = self.hook_calls.get(name, self.calls[name])
            lines.append(f"  {name:<44} {calls:>8} {self.self_s[name]:10.6f} "
                         f"{self.incl_s[name]:10.6f}")
        lines += [f"  {name:<44} absent" for name in self.absent]
        return "\n".join(lines)
