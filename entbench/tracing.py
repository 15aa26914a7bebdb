"""Spans around public entbounds functions, installed from outside the package.

`Tracer.enable()` replaces each target function, in every entbounds module
that holds a reference to it, by a wrapper that records a span: id,
parent id, name, start, end and the operation it belongs to.  Class
targets are traced through their `__post_init__`, which is where a
dataclass validates.  `disable()` puts the originals back, so untraced
rounds run the program unchanged.  Spans stay in memory until
`write_jsonl`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

TARGETS = {
    "linalg": ["DensityMatrix", "kron_ab", "tensor_power", "trace_distance", "mix"],
    "measures": ["eof_upper_general", "ec_upper", "ed_lower", "eof_2x2", "log_negativity", "is_ppt"],
    "mixing": [
        "binomial_window", "tail_mass_scan", "symmetric_block",
        "build_truncated_mixture", "verify_mixing_bound",
    ],
    "protocols": ["concentration_yield", "concentration_curve", "eta_continuity_scan"],
    "continuity": ["sample_ball", "ball_constants", "corridor_consistency_check", "border_scan_2x2"],
    "stateio": ["load_state", "atomic_write_text"],
    "cli": ["main"],
}

SPAN_NAMES = [f"{module}.{name}" for module, names in TARGETS.items() for name in names]
PACKAGE = "entbounds"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.op: str | None = None
        self.round: int | None = None
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, names in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            for name in names:
                target = getattr(home, name, None)
                if target is None:
                    continue  # a function a later version removed reads 0
                span = f"{module_name}.{name}"
                if isinstance(target, type):
                    original = target.__dict__.get("__post_init__")
                    if original is not None:
                        self._patches.append((target, "__post_init__", original, self._wrap(span, original)))
                    continue
                wrapper = self._wrap(span, target)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is target:
                            self._patches.append((module, attr, target, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op, self.round))

        return wrapper

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def per_round(self, rounds: list[int]) -> dict[str, tuple[float, float]]:
        """name -> (calls per round, median self seconds per round).

        Self time is a span's duration minus the durations of its child
        spans; children run inside their parent, one at a time, so their
        durations sum to the part of the parent they cover.
        """
        child = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(lambda: defaultdict(float))
        for sid, _, name, start, end, _, rnd in self.spans:
            calls[name] += 1
            self_s[name][rnd] += end - start - child[sid]
        out = {}
        for name in SPAN_NAMES:
            per = sorted(self_s[name].get(r, 0.0) for r in rounds)
            mid = len(per) // 2
            median = per[mid] if len(per) % 2 else (per[mid - 1] + per[mid]) / 2
            out[name] = (calls[name] / len(rounds), median)
        return out

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "op", "round")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
