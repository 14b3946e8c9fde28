"""Per-layer tracing for the rsqg benchmark, installed from outside.

The tracer replaces public functions and methods of rsqg with timing
wrappers by patching the module and class attributes that rsqg looks
up at call time, and puts the originals back on uninstall.  A function
imported by name into several modules (`from .linalg import invert`)
is patched in every module that holds it.  Each call becomes one span
(name, start, end, parent) kept in flat arrays in memory and written
out once at the end.  A layer's self time is its spans' durations minus
the time covered by their direct child spans.

A wrapped target that no longer exists (a later refactor removed or
renamed it) is skipped, and the metrics that depend on it are reported
as absent instead of failing the run.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (span name, module, attribute path) of every wrapped target
TARGETS = [
    ("scalars.RatFunc", "rsqg.scalars", "RatFunc.__init__"),
    ("linalg.from_vectors", "rsqg.linalg", "Subspace.from_vectors"),
    ("linalg.contains_vector", "rsqg.linalg", "Subspace.contains_vector"),
    ("linalg.project_vector", "rsqg.linalg", "QuotientData.project_vector"),
    ("linalg.invert", "rsqg.linalg", "invert"),
    ("linalg.kernel_image_rank", "rsqg.linalg", "kernel_image_rank"),
    ("linalg.matmul", "rsqg.linalg", "Matrix.__mul__"),
    ("linalg.kron", "rsqg.linalg", "Matrix.kron"),
    ("uqrs.tensor_power_rep", "rsqg.uqrs", "tensor_power_rep"),
    ("uqrs.tensor_action", "rsqg.uqrs", "tensor_action"),
    ("uqrs.check_defining_relations", "rsqg.uqrs", "check_defining_relations"),
    ("uqrs.weight_spaces", "rsqg.uqrs", "weight_spaces"),
    ("rmatrix.build_r_z", "rsqg.rmatrix", "build_r_z"),
    ("rmatrix.check_ybe_spectral", "rsqg.rmatrix", "check_ybe_spectral"),
    ("rmatrix.check_braid_constant", "rsqg.rmatrix", "check_braid_constant"),
    ("rmatrix.check_min_poly", "rsqg.rmatrix", "check_min_poly"),
    ("rmatrix.check_module_morphism", "rsqg.rmatrix", "check_module_morphism"),
    ("rmatrix.jimbo_compare", "rsqg.rmatrix", "jimbo_compare"),
    ("wedge.build_wedge_module", "rsqg.wedge", "build_wedge_module"),
    ("wedge.wedge_dimension", "rsqg.wedge", "wedge_dimension"),
    ("wedge.verify_fundamental", "rsqg.wedge", "verify_fundamental"),
    ("cli.main", "rsqg.cli", "main"),
]

_RMATRIX_CHECKS = ("rmatrix.check_ybe_spectral", "rmatrix.check_braid_constant",
                   "rmatrix.check_min_poly", "rmatrix.check_module_morphism",
                   "rmatrix.jimbo_compare")

# per-layer metric -> (unit, better, spans it is computed from)
METRICS = {
    "scalars.ratfunc_new": ("count", "lower", ("scalars.RatFunc",)),
    "scalars.ratfunc_s": ("s", "lower", ("scalars.RatFunc",)),
    "scalars.max_coeff_bits": ("bits", "lower", ("scalars.RatFunc",)),
    "linalg.echelon_vectors": ("count", "lower", ("linalg.from_vectors",)),
    "linalg.echelon_rank": ("count", "lower", ("linalg.from_vectors",)),
    "linalg.echelon_useful": ("ratio", "higher", ("linalg.from_vectors",)),
    "linalg.echelon_s": ("s", "lower", ("linalg.from_vectors",)),
    "linalg.contains": ("count", "lower", ("linalg.contains_vector",)),
    "linalg.contains_s": ("s", "lower", ("linalg.contains_vector",)),
    "linalg.project_s": ("s", "lower", ("linalg.project_vector",)),
    "linalg.invert_s": ("s", "lower", ("linalg.invert",)),
    "linalg.kernel_image_s": ("s", "lower", ("linalg.kernel_image_rank",)),
    "linalg.matmul": ("count", "lower", ("linalg.matmul",)),
    "linalg.matmul_nnz": ("count", "lower", ("linalg.matmul",)),
    "linalg.matmul_s": ("s", "lower", ("linalg.matmul",)),
    "linalg.kron_s": ("s", "lower", ("linalg.kron",)),
    "uqrs.tensor_power_s": ("s", "lower", ("uqrs.tensor_power_rep",)),
    "uqrs.tensor_power_dim": ("count", "lower", ("uqrs.tensor_power_rep",)),
    "uqrs.tensor_action": ("count", "lower", ("uqrs.tensor_action",)),
    "uqrs.relations_s": ("s", "lower", ("uqrs.check_defining_relations",)),
    "uqrs.weights_s": ("s", "lower", ("uqrs.weight_spaces",)),
    "rmatrix.build_r_z": ("count", "lower", ("rmatrix.build_r_z",)),
    "rmatrix.build_r_z_s": ("s", "lower", ("rmatrix.build_r_z",)),
    "rmatrix.checks_s": ("s", "lower", _RMATRIX_CHECKS),
    "wedge.build_s": ("s", "lower", ("wedge.build_wedge_module",)),
    "wedge.dimension_s": ("s", "lower", ("wedge.wedge_dimension",)),
    "wedge.verify_fundamental_s": ("s", "lower", ("wedge.verify_fundamental",)),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    "cli.output_bytes": ("bytes", "lower", ("cli.main",)),
}


def _max_coeff_bits(terms):
    best = 0
    for c in terms.values():
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class _CountingIter:
    """Pass-through iterator that counts the vectors it hands out."""

    def __init__(self, it, tracer):
        self._it = iter(it)
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        v = next(self._it)
        self._tracer.counters["linalg.echelon_vectors"] += 1
        return v


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack = []
        self._patches = []
        self.missing = []
        self.counters = {"linalg.echelon_vectors": 0, "linalg.echelon_rank": 0,
                         "linalg.matmul_nnz": 0, "uqrs.tensor_power_dim": 0,
                         "scalars.max_coeff_bits": 0, "cli.output_bytes": 0}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn, after=None, before=None):
        nid = self._name_id(name)
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        names, parents = self.span_name, self.span_parent
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def add_output_bytes(self, count):
        self.counters["cli.output_bytes"] += count

    # -- hooks that turn arguments and results into counters ---------------

    def _after_ratfunc(self, args, _result):
        obj = args[0]
        bits = max(_max_coeff_bits(obj.num.terms), _max_coeff_bits(obj.den.terms))
        if bits > self.counters["scalars.max_coeff_bits"]:
            self.counters["scalars.max_coeff_bits"] = bits

    def _before_from_vectors(self, args):
        # classmethod: args are (cls, ambient_dim, vectors)
        return args[:2] + (_CountingIter(args[2], self),) + args[3:]

    def _after_from_vectors(self, _args, result):
        self.counters["linalg.echelon_rank"] += len(result.basis)

    def _after_matmul(self, _args, result):
        if result is not NotImplemented:
            self.counters["linalg.matmul_nnz"] += len(result.entries)

    def _after_tensor_power(self, _args, result):
        self.counters["uqrs.tensor_power_dim"] += result.dim

    # -- patching ----------------------------------------------------------

    def install(self):
        hooks = {
            "scalars.RatFunc": (self._after_ratfunc, None),
            "linalg.from_vectors": (self._after_from_vectors,
                                    self._before_from_vectors),
            "linalg.matmul": (self._after_matmul, None),
            "uqrs.tensor_power_rep": (self._after_tensor_power, None),
        }
        rsqg_modules = [m for k, m in sorted(sys.modules.items())
                        if (k == "rsqg" or k.startswith("rsqg.")) and m is not None]
        for name, modname, attr in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or leaf not in vars(owner):
                self.missing.append(name)
                continue
            raw = vars(owner)[leaf]
            after, before = hooks.get(name, (None, None))
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__, after, before))
                self._patch(owner, leaf, patched)
                continue
            patched = self._wrap(name, raw, after, before)
            if owner_name:
                self._patch(owner, leaf, patched)
                continue
            # a module-level function: patch every rsqg module bound to it
            for mod in rsqg_modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._patch(mod, key, patched)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Total self time per span name, in seconds."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = [0.0] * len(self.names)
        counts = [0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            totals[nid] += ends[i] - starts[i] - child[i]
            counts[nid] += 1
        return ({self.names[k]: totals[k] for k in range(len(self.names))},
                {self.names[k]: counts[k] for k in range(len(self.names))})

    def metrics(self, rounds):
        """Per-round per-layer metrics; absent when a source span is missing."""
        selfs, calls = self.self_times()

        def total(spans):
            return sum(selfs.get(s, 0.0) for s in spans)

        c = self.counters
        vectors = c["linalg.echelon_vectors"]
        values = {
            "scalars.ratfunc_new": calls.get("scalars.RatFunc", 0) / rounds,
            "scalars.ratfunc_s": total(("scalars.RatFunc",)) / rounds,
            "scalars.max_coeff_bits": c["scalars.max_coeff_bits"],
            "linalg.echelon_vectors": vectors / rounds,
            "linalg.echelon_rank": c["linalg.echelon_rank"] / rounds,
            "linalg.echelon_useful": (c["linalg.echelon_rank"] / vectors
                                      if vectors else 0.0),
            "linalg.echelon_s": total(("linalg.from_vectors",)) / rounds,
            "linalg.contains": calls.get("linalg.contains_vector", 0) / rounds,
            "linalg.contains_s": total(("linalg.contains_vector",)) / rounds,
            "linalg.project_s": total(("linalg.project_vector",)) / rounds,
            "linalg.invert_s": total(("linalg.invert",)) / rounds,
            "linalg.kernel_image_s": total(("linalg.kernel_image_rank",)) / rounds,
            "linalg.matmul": calls.get("linalg.matmul", 0) / rounds,
            "linalg.matmul_nnz": c["linalg.matmul_nnz"] / rounds,
            "linalg.matmul_s": total(("linalg.matmul",)) / rounds,
            "linalg.kron_s": total(("linalg.kron",)) / rounds,
            "uqrs.tensor_power_s": total(("uqrs.tensor_power_rep",)) / rounds,
            "uqrs.tensor_power_dim": c["uqrs.tensor_power_dim"] / rounds,
            "uqrs.tensor_action": calls.get("uqrs.tensor_action", 0) / rounds,
            "uqrs.relations_s": total(("uqrs.check_defining_relations",)) / rounds,
            "uqrs.weights_s": total(("uqrs.weight_spaces",)) / rounds,
            "rmatrix.build_r_z": calls.get("rmatrix.build_r_z", 0) / rounds,
            "rmatrix.build_r_z_s": total(("rmatrix.build_r_z",)) / rounds,
            "rmatrix.checks_s": total(_RMATRIX_CHECKS) / rounds,
            "wedge.build_s": total(("wedge.build_wedge_module",)) / rounds,
            "wedge.dimension_s": total(("wedge.wedge_dimension",)) / rounds,
            "wedge.verify_fundamental_s": total(("wedge.verify_fundamental",)) / rounds,
            "cli.self_s": total(("cli.main",)) / rounds,
            "cli.output_bytes": c["cli.output_bytes"] / rounds,
        }
        out = {}
        for name, (unit, _better, sources) in METRICS.items():
            if any(s in self.missing for s in sources):
                continue
            out[name] = {"value": values[name], "unit": unit}
        return out

    def write(self, path, meta):
        """Spans as parallel columns, gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "names": self.names, "missing": self.missing,
               "name": list(self.span_name), "start": list(self.span_start),
               "end": list(self.span_end), "parent": list(self.span_parent)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
