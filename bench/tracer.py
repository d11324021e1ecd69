"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each hooked function by a wrapper at every
module attribute (or class attribute) where branchsim's callers look it up
at call time.  Each call records a span (layer, parent, start, end); the
spans stay in memory and are summarised once the run is over.  A hook whose
target no longer exists is reported as missing, so a refactor cannot drop a
layer from the breakdown unnoticed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import pickle
import sys
import time

import numpy as np

# Layer -> hooked targets, as "module:attribute".  Functions are replaced in
# every branchsim module that binds them, so callers that imported them by
# name are traced too.
HOOKS = {
    "state.digit_values": ["branchsim.state:SubsystemLayout.digit_values"],
    "state.vector": [
        "branchsim.experiments:superpose",
        "branchsim.experiments:product_state",
    ],
    "state.layout": ["branchsim.experiments:chain_layout"],
    "dynamics.build": [
        "branchsim.experiments:build_detection_unitary",
        "branchsim.experiments:build_photon_emission_unitary",
        "branchsim.experiments:build_perception_unitary",
        "branchsim.experiments:build_basis_rotation",
    ],
    "dynamics.apply": ["branchsim.experiments:apply_unitary"],
    "experiments.run": [
        "branchsim.experiments:run_measurement_chain",
        "branchsim.experiments:run_appendix_rotation",
    ],
    "experiments.decompose": ["branchsim.experiments:decompose_branches"],
    "experiments.independence": ["branchsim.experiments:coefficient_independence_check"],
    "experiments.no_signaling": ["branchsim.experiments:no_signaling_check"],
    "experiments.record_weights": [
        "branchsim.experiments:mixed_record_weight",
        "branchsim.experiments:disagreement_weight",
    ],
    "analysis.coherence": ["branchsim.analysis:observer_coherence"],
    "cli.parse_config": ["branchsim.cli:parse_config"],
    "cli.write_report": ["branchsim.cli:write_report"],
}

OBSERVE = "trace.observe"


class Tracer:
    def __init__(self):
        # Each span is [layer, parent index or -1, start, end].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: dict[str, list[str]] = {}
        self.operator_bytes = 0
        self._operators: set[bytes] = set()

    def install(self, hooks: dict[str, list[str]] = HOOKS) -> None:
        for layer, targets in hooks.items():
            for target in targets:
                if not self._hook(layer, target):
                    self.missing.setdefault(layer, []).append(target)

    def _hook(self, layer: str, target: str) -> bool:
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(layer, original)
        if owners:
            setattr(owner, attr, wrapper)
            return True
        for name, module in list(sys.modules.items()):
            if name == "branchsim" or name.startswith("branchsim."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return True

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        observe = self._observe_build if layer == "dynamics.build" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, stack[-1] if stack else -1, time.perf_counter(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(fn, args, kwargs, result)
            return result

        return traced

    def _observe_build(self, fn, args, kwargs, op) -> None:
        """Count an operator's computed bytes and remember its inputs, in a
        span of its own so the cost is charged to the tracer, not a layer.

        The builders are pure functions, so equal inputs give equal
        operators: distinct inputs count the distinct operators built.
        """
        index = len(self.spans)
        self.spans.append(
            [OBSERVE, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        )
        self.operator_bytes += sum(
            value.nbytes for value in vars(op).values() if isinstance(value, np.ndarray)
        )
        inputs = pickle.dumps((fn.__qualname__, args, sorted(kwargs.items())))
        self._operators.add(hashlib.sha1(inputs).digest())
        self.spans[index][3] = time.perf_counter()

    @property
    def distinct_operators(self) -> int:
        return len(self._operators)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, self seconds and inclusive seconds per layer.

        Self time is a span's duration minus that of its direct children.
        Inclusive time counts only the outermost span of a layer, so a layer
        that re-enters itself is not counted twice.
        """
        self_s = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        layers: dict[str, dict[str, float]] = {}
        for index, (layer, parent, start, end) in enumerate(self.spans):
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s[index]
            if not self._inside(layer, parent):
                entry["total_s"] += end - start
        return layers

    def _inside(self, layer: str, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][1]
        return False

    def top_level_seconds(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)
