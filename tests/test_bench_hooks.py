"""The benchmark's tracer finds every function it hooks.

``bench/tracer.py`` wraps the functions named in its ``HOOKS`` table and
reports a target it cannot resolve as missing.  Each target is resolved
here the way ``Tracer._hook`` does it (import the module, walk the
attributes, require a callable), without installing any wrapper, so a
refactor that drops a traced name fails the tests.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "bench", "tracer.py")


def benchmark_hooks() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def resolves(target: str) -> bool:
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    for name in path.split("."):
        owner = getattr(owner, name, None)
    return callable(owner)


def test_every_benchmark_hook_target_resolves():
    hooks = benchmark_hooks()
    targets = [target for layer_targets in hooks.values() for target in layer_targets]
    assert targets
    assert [target for target in targets if not resolves(target)] == []
