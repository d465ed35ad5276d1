"""Outside-in call tracer for the linkimm benchmark.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
named public function with a timing wrapper and rebinds that wrapper in
every ``linkimm`` module namespace that holds the same function object:
``wu``, ``plumbing``, ``classify`` and ``cli`` bind their own copies
through ``from .x import y``, and library-internal calls (``cokernel``
calling ``smith_normal_form``, ``realize_parallelization`` calling
``bockstein``) go through module globals, so every path is covered.

A span is ``(name, start_ns, end_ns, parent_index, info)`` and stays in
memory until the run ends.  Bookkeeping done inside a wrapper (hashing
the input matrix, measuring coefficient sizes) is timed too and charged
to no layer: it is subtracted from the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns


def _smith_pre(args, kwargs):
    a = args[0] if args else kwargs["a"]
    return hash((a.rows, a.cols, a.entries))


def _smith_post(result):
    return max(
        (abs(e).bit_length() for m in (result.u, result.s, result.v) for e in m.entries),
        default=0,
    )


def _len_post(result):
    return len(result)


def _alpha_post(result):
    return result["alpha"]


# (span name, module, attribute path, pre-hook, post-hook).  A pre-hook
# reads the arguments, a post-hook the result; their values land in the
# span's ``info`` as (pre, post).
TARGETS = (
    ("linalg.smith_normal_form", "linkimm.linalg", "smith_normal_form", _smith_pre, _smith_post),
    ("linalg.signature", "linkimm.linalg", "signature", None, None),
    ("linalg.kernel_mod2", "linkimm.linalg", "kernel_mod2", None, None),
    ("linalg.cokernel", "linkimm.linalg", "cokernel", None, None),
    ("plumbing.link_first_homology", "linkimm.plumbing", "link_first_homology", None, None),
    ("plumbing.filling_signature", "linkimm.plumbing", "filling_signature", None, None),
    ("plumbing.intersection_matrix", "linkimm.plumbing", "intersection_matrix", None, None),
    ("plumbing.recognize_dynkin", "linkimm.plumbing", "recognize_dynkin", None, None),
    ("plumbing.from_dict", "linkimm.plumbing", "PlumbingGraph.from_dict", None, None),
    ("wu.bockstein", "linkimm.wu", "bockstein", None, None),
    ("wu.gamma2", "linkimm.wu", "gamma2", None, _len_post),
    ("wu.realize_parallelization", "linkimm.wu", "realize_parallelization", None, None),
    ("classify.table_row", "linkimm.classify", "table_row", None, None),
    ("classify.classify_link_inclusion", "linkimm.classify", "classify_link_inclusion", None, None),
    ("classify.classify_kinjo_pushforward", "linkimm.classify", "classify_kinjo_pushforward", None, None),
    ("classify.formal_smale_type", "linkimm.classify", "formal_smale_type", None, None),
    ("smale.kinjo_smale", "linkimm.smale", "kinjo_smale", None, None),
    ("catalog.singularity_record", "linkimm.catalog", "singularity_record", None, None),
    ("cli.graph_payload", "linkimm.cli", "graph_payload", None, _alpha_post),
    ("cli.link_payload", "linkimm.cli", "link_payload", None, None),
    ("cli.table_payload", "linkimm.cli", "table_payload", None, None),
    ("cli.smale_payload", "linkimm.cli", "smale_payload", None, None),
    ("cli.bockstein_payload", "linkimm.cli", "bockstein_payload", None, None),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent, info); None while open
        self.overhead = defaultdict(int)  # parent index -> bookkeeping ns inside it
        self._stack = []
        self._originals = {}  # code object of each wrapped function -> span name

    def wrap(self, name, fn, pre=None, post=None):
        spans, stack, overhead = self.spans, self._stack, self.overhead

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = _now()
            parent = stack[-1] if stack else None
            pre_info = pre(args, kwargs) if pre else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            ok = False
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = _now()
                stack.pop()
                post_info = post(result) if ok and post else None
                spans[index] = (name, t0, t1, parent, (pre_info, post_info, ok))
                overhead[parent] += (t0 - t_in) + (_now() - t1)

        return traced

    def install(self):
        """Wrap every target and rebind it wherever the library holds it."""
        for _, module, _, _, _ in TARGETS:
            importlib.import_module(module)
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "linkimm" or n.startswith("linkimm.")) and m is not None]
        for name, module, path, pre, post in TARGETS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._originals[raw.__func__.__code__] = name
                wrapper = self.wrap(name, raw.__func__, pre, post)
                setattr(owner, attr, staticmethod(wrapper))
                continue
            self._originals[raw.__code__] = name
            wrapper = self.wrap(name, raw, pre, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)
            stale = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items() if v is raw]
            if stale:
                raise RuntimeError(f"{name} still bound unwrapped at {stale}")

    def uncovered(self, call, reaches=()):
        """Run ``call()`` once under a profiler and compare its call counts with the spans.

        The profiler sees every call into a wrapped function's code, through
        whatever binding it was made; a count above the span count means a
        call path the rebinding missed.  Each name in ``reaches`` must run
        at least once, so the check cannot pass on inputs that never reach
        it.  Returns one message per problem.
        """
        seen = defaultdict(int)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in self._originals:
                seen[self._originals[frame.f_code]] += 1

        first = len(self.spans)
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        spanned = defaultdict(int)
        for span in self.spans[first:]:
            spanned[span[0]] += 1
        return ([f"tracer coverage: {name} ran {seen[name]} times but has {spanned[name]} spans"
                 for name in sorted(set(self._originals.values())) if seen[name] != spanned[name]]
                + [f"tracer coverage: the check's inputs never reach {name}"
                   for name in reaches if not seen[name]])

    def self_times(self):
        """Per-span self time: duration minus child spans and their bookkeeping."""
        covered = defaultdict(int)
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                covered[parent] += end - start
        return [
            (end - start) - covered[i] - self.overhead.get(i, 0)
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def nearest(self, index, names):
        """Index of the closest ancestor of a span whose name is in ``names``."""
        parent = self.spans[index][3]
        while parent is not None and self.spans[parent][0] not in names:
            parent = self.spans[parent][3]
        return parent
