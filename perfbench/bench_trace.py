"""Span tracing of clp's public functions, installed from outside.

The tracer wraps module and class attributes of the ``clp`` package at
run time, inside the benchmark process only; nothing under ``src/`` is
edited.  A name that one clp module imports from another (for example
``clp.codec.concat_bits``) is patched in every clp module that holds
it, so calls through either name are seen.  ``Patches.restore`` puts
every original object back.

Each call of a wrapped function inside an open phase becomes a span
with a function id, start and end (``perf_counter_ns``), the index of
its parent span and the phase and round it ran in.  Spans live in
typed arrays in memory and are written out once, at the end of the
run.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bench_workloads import EXACT_CHECKS, MONTE_CARLO_CHECKS

PHASES = ("encode", "decode", "verify")
CHECKS = MONTE_CARLO_CHECKS + EXACT_CHECKS

# (metric name, defining module, attribute path).  The metric name is
# "<layer>.<function>"; the layer is the clp module.
TARGETS = (
    ("bits.window", "clp.bits", "BitSequence.window"),
    ("bits.concat_bits", "clp.bits", "concat_bits"),
    ("bits.bernoulli", "clp.bits", "bernoulli"),
    ("dictionary.search", "clp.dictionary", "CodebookTree.search"),
    ("dictionary.find_matches", "clp.dictionary", "CodebookTree.find_matches"),
    ("dictionary.extend_codelet", "clp.dictionary", "CodebookTree.extend_codelet"),
    ("dictionary.promote", "clp.dictionary", "CodebookTree.promote"),
    ("dictionary.fill_level1", "clp.dictionary", "CodebookTree.fill_level1"),
    ("dictionary.cap", "clp.dictionary", "CodebookTree.cap"),
    ("codec.encode_idealized", "clp.codec", "encode_idealized"),
    ("codec.encode_practical", "clp.codec", "encode_practical"),
    ("codec.decode", "clp.codec", "decode"),
    ("codec.write_trunc", "clp.codec", "BitWriter.write_trunc"),
    ("codec.read_trunc", "clp.codec", "BitReader.read_trunc"),
    ("codec.select_codelet", "clp.codec", "select_codelet"),
    ("codec.lz78_encode", "clp.codec", "lz78_encode"),
    ("codec.lz78_decode", "clp.codec", "lz78_decode"),
    ("rd_math.lower_mutual_info_float", "clp.rd_math", "lower_mutual_info_float"),
    ("matching.match_probability_exact", "clp.matching", "match_probability_exact"),
    ("matching.ball_probability_exact", "clp.matching", "ball_probability_exact"),
    ("matching.cycle_lemma_lower_bound_exact", "clp.matching",
     "cycle_lemma_lower_bound_exact"),
    *(("harness." + check, "clp.harness", check) for check in CHECKS),
)

CLP_MODULES = ("clp", "clp.bits", "clp.codec", "clp.dictionary", "clp.harness",
               "clp.matching", "clp.rd_math", "clp.cli", "clp.errors")

def _count_search(counts, phase, result):
    best, _frontier = result
    if best is not None:
        counts[(phase, "dictionary.search.hits")] += 1


def _count_matches(counts, phase, result):
    counts[(phase, "dictionary.find_matches.candidates")] += len(result)


def _count_idealized(counts, phase, result):
    stats = result.stats
    counts[(phase, "codec.phrases")] += stats.phrases
    counts[(phase, "codec.escapes")] += stats.escapes
    counts[(phase, "codec.payload_bits")] += result.stream.payload_bits
    counts[(phase, "dictionary.give_ups")] += stats.give_ups


def _count_practical(counts, phase, result):
    counts[(phase, "codec.phrases")] += len(result.events)
    counts[(phase, "codec.escapes")] += sum(e.kind == "escape" for e in result.events)
    counts[(phase, "codec.payload_bits")] += result.stream.payload_bits


def _count_samples(name):
    key = name + ".samples"

    def observe(counts, phase, result):
        counts[(phase, key)] += result.samples
    return observe


OBSERVERS = {
    "dictionary.search": _count_search,
    "dictionary.find_matches": _count_matches,
    "codec.encode_idealized": _count_idealized,
    "codec.encode_practical": _count_practical,
}
OBSERVERS.update({"harness." + c: _count_samples("harness." + c) for c in CHECKS})


def resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def attribute_sites():
    """Every (owner, attribute, metric name) that holds a traced object.

    The defining site comes first; then every clp module attribute that
    is the very same object, i.e. each place the name was imported to.
    """
    modules = [importlib.import_module(m) for m in CLP_MODULES]
    sites = []
    for name, module_name, path in TARGETS:
        owner, attr = resolve(module_name, path)
        original = owner.__dict__[attr]
        sites.append((owner, attr, name))
        if isinstance(owner, type):
            continue
        for mod in modules:
            if mod is not owner and mod.__dict__.get(attr) is original:
                sites.append((mod, attr, name))
    return sites


def snapshot():
    """Identity map of every traced attribute, for restore checks."""
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr, _ in attribute_sites()}


class Tracer:
    """Collects spans and result counts while a phase is open."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS] + [f"phase.{p}" for p in PHASES]
        self._id = {name: i for i, name in enumerate(self.names)}
        self.fn = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.phase_of = array("b")
        self.round_of = array("h")
        self.outer = array("b")
        self.counts = defaultdict(float)
        self._stack = []
        self._active = defaultdict(int)
        self.phase = -1
        self.round = 0

    # -- span bookkeeping ------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase_of.append(self.phase)
        self.round_of.append(self.round)
        self.outer.append(self._active[fid] == 0)
        self._active[fid] += 1
        self._stack.append(idx)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, fid: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._active[fid] -= 1

    @contextmanager
    def span_phase(self, phase: str):
        """Open ``phase``: wrapped calls inside become spans under it."""
        fid = self._id[f"phase.{phase}"]
        self.phase = PHASES.index(phase)
        idx = self._open(fid)
        try:
            yield
        finally:
            self._close(idx, fid)
            self.phase = -1

    def wrap(self, name: str, fn):
        fid = self._id[name]
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, fid)
            if observe is not None:
                observe(tracer.counts, PHASES[tracer.phase], result)
            return result
        return traced

    # -- results -----------------------------------------------------------

    def columns(self):
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "phase": np.frombuffer(self.phase_of, dtype=np.int8),
            "round": np.frombuffer(self.round_of, dtype=np.int16),
            "outer": np.frombuffer(self.outer, dtype=np.int8),
        }

    def per_round(self, rounds: int):
        """{(phase, function): [(calls, s, self_s) for each round]}."""
        cols = self.columns()
        n = len(cols["fn"])
        dur = (cols["end"] - cols["start"]).astype(np.float64) / 1e9
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self_s = dur - child
        nfn = len(self.names)
        key = (cols["round"].astype(np.int64) * len(PHASES)
               + cols["phase"]) * nfn + cols["fn"]
        size = rounds * len(PHASES) * nfn
        calls = np.bincount(key, minlength=size)
        incl = np.bincount(key, weights=dur * cols["outer"], minlength=size)
        excl = np.bincount(key, weights=self_s, minlength=size)
        out = {}
        for p, phase in enumerate(PHASES):
            for f, name in enumerate(self.names):
                rows = []
                for r in range(rounds):
                    k = (r * len(PHASES) + p) * nfn + f
                    rows.append((int(calls[k]), float(incl[k]), float(excl[k])))
                out[(phase, name)] = rows
        return out

    def write(self, path: Path) -> None:
        """Spans as columns in an .npz, names in a JSON sidecar."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.columns())
        path.with_suffix(".names.json").write_text(json.dumps(self.names))


class Patches:
    """Installs tracing wrappers on every site; restore() undoes them."""

    def __init__(self, tracer: Tracer):
        self._saved = []
        wrapped = {}
        try:
            for owner, attr, name in attribute_sites():
                original = owner.__dict__[attr]
                if id(original) not in wrapped:
                    wrapped[id(original)] = tracer.wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
