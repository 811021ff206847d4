"""Layer tracing from outside the package.

`Tracer.install` replaces each layer's public functions with a timing wrapper
in every qprep3 module that looks the function up by name (for example
`qprep3.synth.apply_gate`, `qprep3.kernels.apply_local`), and PureState2/3
validation on the classes themselves. No package file is edited; `uninstall`
puts the originals back.

A span is (name, start, end, parent index, operation id). Spans are kept in
memory and written out by the caller when the run ends. Self time is a span's
duration minus the time its child spans cover (children never overlap: one
thread, nested calls).
"""
import importlib
import json
import re
import time
from collections import Counter

# (span name, defining module, function names)
LAYERS = [
    ("state.blocks", "state", ["blocks"]),
    ("state.delta", "state", ["delta"]),
    ("state.factor_right", "state", ["factor_right"]),
    ("mat2.solve_det_pencil", "mat2", ["solve_det_pencil"]),
    ("mat2.unitary", "mat2", ["l1", "r1", "r2", "r3", "u_from_pair"]),
    ("kernels.apply_local", "kernels", ["apply_local"]),
    ("kernels.apply_cz", "kernels", ["apply_cz"]),
    ("circuit.apply_gate", "circuit", ["apply_gate"]),
    ("circuit.invert", "circuit", ["invert"]),
    ("circuit.apply_circuit", "circuit", ["apply_circuit"]),
    ("circuit.emit_circuit", "circuit", ["emit_circuit"]),
    ("circuit.parse_circuit", "circuit", ["parse_circuit"]),
    ("synth.disentangle2", "synth", ["disentangle2"]),
    ("synth.disentangle3", "synth", ["disentangle3"]),
    ("synth.disentangle3_real", "synth", ["disentangle3_real"]),
    ("synth.prepare", "synth", ["prepare"]),
    ("cli.parse_state_text", "cli", ["parse_state_text"]),
    ("cli.main", "cli", ["main"]),
]
VALIDATE = "state.validate"
SPAN_NAMES = [VALIDATE] + [name for name, _, _ in LAYERS]
_LOOKUP_MODULES = ["", ".state", ".mat2", ".circuit", ".synth", ".cli", ".kernels"]

# Branch labels synth.py emits today; anything else counts as "other".
BRANCH_LABELS = [
    "detT=0", "detT!=0", "delta>=0", "delta<0", "detA0~0", "detB0=0", "pencil",
    "pencil-root-clamped", "A1=0", "skip-step4", "step4", "skip-step5", "step5",
    "b3=0", "cz12",
]


def branch_metric(label: str) -> str:
    """Metric-safe form of a branch label: detB0=0 -> detB0_0, delta<0 -> delta_lt0."""
    for old, new in (("!=", "_ne"), (">=", "_ge"), ("<", "_lt"), ("=", "_"), ("~", "_approx")):
        label = label.replace(old, new)
    return re.sub(r"[^A-Za-z0-9_.-]", "_", label)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.branches = Counter()
        self._patched = []

    def _wrap(self, name, fn):
        outer_synth = name.startswith("synth.")

        def traced(*args, **kwargs):
            stack, spans = self.stack, self.spans
            # a layer calling itself (r1 -> u_from_pair) stays one span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            top = outer_synth and not any(spans[i][0].startswith("synth.") for i in stack)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if top:
                    self.branches.update(getattr(exc, "branch_trace", ()))
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if top:
                self.branches.update(result.branch_trace)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, qprep3):
        modules = [importlib.import_module("qprep3" + suffix) for suffix in _LOOKUP_MODULES]
        for name, home, fnames in LAYERS:
            home_mod = importlib.import_module("qprep3." + home)
            for fname in fnames:
                original = getattr(home_mod, fname)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        for cls in (qprep3.PureState2, qprep3.PureState3):
            original = cls.__dict__["__post_init__"]
            self._patched.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", self._wrap(VALIDATE, original))

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def take(self):
        """Return and reset the spans and branch counts recorded so far."""
        spans, branches = self.spans, self.branches
        self.spans, self.branches = [], Counter()
        return spans, branches

    def dump(self, path):
        spans, branches = self.take()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "branches": branches}, fh)


def aggregate(spans):
    """{name: [calls, self seconds]} from a list of spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _, _), covered in zip(spans, child):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return out


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\top\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")
