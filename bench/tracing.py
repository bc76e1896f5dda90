"""Run-time tracing of matcanon's public functions, from outside the package.

``Tracer.install`` replaces the named functions and methods with wrappers
that record a span (name, start, end, parent, job id) and accumulate call
counts, self time (span minus child spans) and computed work counts;
``uninstall`` puts the originals back.  Hot kernels that call nothing
traced (the PolyOps members, matrix products and eliminations) are leaf
wrappers: instead of one span per call they add their calls and time to
the enclosing span, which keeps memory bounded.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span record fields
NAME, START, END, PARENT, JOB, CHILD, LEAVES = range(7)

POLYOPS_MEMBERS = ("add", "sub", "mul", "scale", "divmod", "monic", "neg")


def _elim_cells(m, *args):
    return m.nrows * m.ncols * min(m.nrows, m.ncols)


def _system_cells(m, m2):
    n, n2 = m.size, m2.size
    return 2 * n * n2 * n * n2


class Tracer:
    def __init__(self, sizes: dict[str, int]):
        self.sizes = sizes            # input path -> bytes
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.totals = defaultdict(lambda: [0, 0.0, 0])   # name -> calls, self s, work
        self.results: list[tuple[str, object]] = []
        self.job = None
        self._undo: list[tuple[object, str, object]] = []
        self._wrapped_ops: list[tuple[object, dict]] = []

    # -- wrappers ----------------------------------------------------------

    def frame(self, name, fn, work=None, keep=False):
        clock, spans, stack, totals = time.perf_counter, self.spans, self.stack, self.totals
        results = self.results
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[END] = end
                dur = end - rec[START]
                tot = totals[name]
                tot[0] += 1
                tot[1] += dur - rec[CHILD]
                if stack:
                    spans[stack[-1]][CHILD] += dur
                if work is not None:
                    tot[2] += work(*args)
            if keep:
                results.append((name, result))
            return result
        return wrapper

    def leaf(self, name, fn, work=None):
        clock, spans, stack, totals = time.perf_counter, self.spans, self.stack, self.totals

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                tot = totals[name]
                tot[0] += 1
                tot[1] += dur
                if work is not None:
                    tot[2] += work(*args)
                if stack:
                    parent = spans[stack[-1]]
                    parent[CHILD] += dur
                    leaves = parent[LEAVES]
                    if leaves is None:
                        leaves = parent[LEAVES] = {}
                    acc = leaves.get(name)
                    if acc is None:
                        leaves[name] = [1, dur]
                    else:
                        acc[0] += 1
                        acc[1] += dur
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_function(self, module, attr, wrapper):
        """Point every matcanon module's binding of module.attr at wrapper."""
        original = getattr(module, attr)
        for mod in [m for k, m in sys.modules.items() if k == "matcanon" or k.startswith("matcanon.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper(original))
                    self._undo.append((mod, key, original))

    def _replace_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def _wrap_ops(self, ops):
        if any(o is ops for o, _ in self._wrapped_ops):
            return ops
        saved = {m: getattr(ops, m) for m in POLYOPS_MEMBERS}
        for m, fn in saved.items():
            work = (lambda f, g: len(f) * len(g)) if m == "mul" else None
            setattr(ops, m, self.leaf(f"polyops.{m}", fn, work))
        self._wrapped_ops.append((ops, saved))
        return ops

    def install(self):
        import matcanon.affine as affine
        import matcanon.cli as cli
        import matcanon.fields as fields
        import matcanon.fileio as fileio
        import matcanon.pairs as pairs
        import matcanon.poly as poly
        import matcanon.rnf as rnf
        from matcanon.matrix import Matrix

        F, L = self.frame, self.leaf
        sizes = self.sizes
        self._replace_function(cli, "main", lambda f: F("cli.main", f))
        self._replace_function(cli, "render_json", lambda f: L("cli.render_json", f))
        for attr in ("parse_matrix_file", "parse_pair_file"):
            self._replace_function(fileio, attr, lambda f, a=attr: F(
                f"fileio.{a}", f, work=lambda path, *rest: sizes.get(path, 0)))
        for attr in ("parse_matrix_text", "parse_pair_text"):
            self._replace_function(fileio, attr, lambda f, a=attr: F(f"fileio.{a}", f))
        self._replace_function(fileio, "parse_field_words", lambda f: L("fileio.parse_field_words", f))
        for attr in ("invariant_factors", "rnf_transform"):
            self._replace_function(rnf, attr, lambda f, a=attr: F(f"rnf.{a}", f, keep=True))
        self._replace_method(Matrix, "__mul__", lambda f: L("matrix.mul", f))
        self._replace_method(Matrix, "mul_vector_raw", lambda f: L("matrix.mul_vector", f))
        for attr in ("rank", "rank_and_kernel", "inverse", "det"):
            self._replace_method(Matrix, attr, lambda f, a=attr: L(f"matrix.{a}", f, _elim_cells))
        for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__divmod__"):
            self._replace_method(poly.Polynomial, attr, lambda f, a=attr: F(f"poly.{a}", f))
        self._replace_function(poly, "product", lambda f: F("poly.product", f))
        for attr in ("hom_dimension", "intertwiners"):
            self._replace_function(pairs, attr, lambda f, a=attr: F(f"pairs.{a}", f, _system_cells))
        for attr in ("split_off_simple", "reduce_to_q"):
            self._replace_function(pairs, attr, lambda f, a=attr: F(f"pairs.{a}", f))
        for attr in ("to_affine", "affine_point"):
            self._replace_function(affine, attr, lambda f, a=attr: F(f"affine.{a}", f))
        # Each field caches one PolyOps; wrap the ones built so far and any
        # built while tracing.
        for field in [fields.QQ, *fields._gf_cache.values()]:
            if getattr(field, "_poly_ops", None) is not None:
                self._wrap_ops(field._poly_ops)
        for cls in (fields.Rationals, fields.PrimeField):
            self._replace_method(cls, "_build_poly_ops",
                                 lambda f: lambda field: self._wrap_ops(f(field)))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        for ops, saved in self._wrapped_ops:
            for m, fn in saved.items():
                setattr(ops, m, fn)
        self._wrapped_ops.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str):
        """One JSON object per span; leaf kernels appear as per-span totals."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, rec in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "job": rec[JOB], "self_s": rec[END] - rec[START] - rec[CHILD],
                    "leaves": rec[LEAVES] or {},
                }) + "\n")
