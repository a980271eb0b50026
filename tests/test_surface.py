"""The package's public surface: the README example, the root exports, and
the module attributes the benchmark's span tracer wraps by name."""

import importlib
import importlib.util
import re
from pathlib import Path

import hamsim

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from hamsim import *", namespace)
    assert set(hamsim.__all__) <= set(namespace)
    assert len(hamsim.__all__) == len(set(hamsim.__all__))


def test_span_boundaries_resolve():
    # the traced benchmark run looks up every boundary by name and fails on
    # the first one missing
    spec = importlib.util.spec_from_file_location(
        "benchmark_spans", ROOT / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    for module, attr, _, _ in spans.BOUNDARIES:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)
