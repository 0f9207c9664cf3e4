"""In-memory spans around the public functions of cycloschur.

``Tracer.install`` replaces each traced function with a wrapper in every
cycloschur namespace that binds it, which is where its callers look it
up, so no source file is edited.  A span records its name, start, end
(``perf_counter_ns``) and the index of the enclosing span (-1 for none).
Generators get one span per ``next``.  A function with an ``lru_cache``
also counts its cache hits, its misses and the time of the missing calls.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time

TRACED = {
    "partitions": ["enumerate_multipartitions", "format_multipartition", "parse_multipartition"],
    "abacus": ["multi_beta", "count_divisible_hooks"],
    "weights": ["residue_vector", "fayers_weight", "uglov_weight", "core"],
    "schur": ["schur_factors", "defect_integer", "specialize_integer", "nu_phi"],
    "groups": ["orbit", "sigma_schur_invariance"],
    "cli": ["main", "scan", "write_scan_csv", "ScanReport.to_text", "ScanReport.to_json_str"],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.cache_delta: dict[str, list[int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _span_id(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self.stack[-1])
        return idx

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack, start, end, new_span = self.stack, self.start, self.end, self._span_id
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = new_span(nid)
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = clock()
                        start[idx] = t0
                        stack.pop()
                    yield item

            return wrapper

        info = getattr(fn, "cache_info", None)
        delta = self.cache_delta.setdefault(name, [0, 0, 0]) if info else None

        def wrapper(*args, **kwargs):
            idx = new_span(nid)
            stack.append(idx)
            if delta is not None:
                before = info()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                if delta is not None:
                    after = info()
                    delta[0] += after.hits - before.hits
                    if after.misses != before.misses:
                        delta[1] += 1
                        delta[2] += end[idx] - t0

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "cycloschur" or k.startswith("cycloschur.")]
        for short, attrs in TRACED.items():
            module = sys.modules[f"cycloschur.{short}"]
            for attr in attrs:
                owner_name, _, fname = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = vars(owner).get(fname) if owner is not None else None
                if fn is None:
                    continue  # a function the package no longer has is not traced
                wrapper = self._wrap(f"{short}.{fname}", fn)
                if owner_name:
                    self._undo.append((owner, fname, fn))
                    setattr(owner, fname, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def summary(self) -> dict:
        """Per name: calls, total ns, and self ns (duration minus the time
        covered by direct children, which never overlap here)."""
        child_ns = [0] * len(self.start)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[idx] - self.start[idx]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0} for name in self.names}
        for idx, nid in enumerate(self.name_of):
            row = out[self.names[nid]]
            dur = self.end[idx] - self.start[idx]
            row["calls"] += 1
            row["ns"] += dur
            row["self_ns"] += dur - child_ns[idx]
        for name, (hits, misses, miss_ns) in self.cache_delta.items():
            out[name].update(cache_hits=hits, cache_misses=misses, miss_ns=miss_ns)
        return out

    def write(self, path: str) -> None:
        """Spans as gzip CSV: id, name, start_ns, end_ns, parent."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for idx, nid in enumerate(self.name_of):
                fh.write(
                    f"{idx},{self.names[nid]},{self.start[idx]},{self.end[idx]},{self.parent[idx]}\n"
                )
