"""The names that code outside the package looks up in it.

README's Library example uses the top-level names. perfbench/spans.py wraps
every function its LAYERS list names, looked up by name in that function's
home module, and each state class's own __post_init__; perfbench/run.py
reads qprep3.kernel_backend on every run, traced or not. A name that goes
from the package fails here, not first in a traced benchmark run.
"""
import importlib
import importlib.util
import pathlib
import re

import qprep3

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _spans_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_readme_example_exports_and_benchmark_lookups_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})

    assert [name for name in qprep3.__all__ if not hasattr(qprep3, name)] == []

    missing = []
    for _, home, fnames in _spans_layers():
        module = importlib.import_module("qprep3." + home)
        missing += [f"qprep3.{home}.{f}" for f in fnames if not callable(getattr(module, f, None))]
    assert missing == []
    assert qprep3.kernel_backend == "python"
    for cls in (qprep3.PureState2, qprep3.PureState3):
        assert callable(cls.__dict__["__post_init__"])
