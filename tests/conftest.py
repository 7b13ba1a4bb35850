"""Hypothesis profiles of the suite, and the modules every session loads.

A profile must be registered before pytest loads the one that
``--hypothesis-profile=NAME`` names, so they are registered here rather
than in a test module.  ``exit-code-fuzz`` raises the example count of
tests/test_cli.py's exit-code fuzz, which takes its count from the active
profile (at least 300), to 3,000:

    python -m pytest -q tests/test_cli.py -k ExitCodeFuzz --hypothesis-profile=exit-code-fuzz

Hypothesis (6.155) adds the literals of every loaded local module outside
the test directories to the pool it draws examples from.  Collecting
bench/test_workloads.py loads bench/workloads.py, so a derandomized
property test drew other examples in the whole suite than in a run of
one file or one ``-k`` selection.  Every such module, the ``qclass``
submodules and bench/workloads.py, is therefore loaded here at session
start, so each run draws the whole suite's examples, and
``SESSION_MODULES`` records them for tests/test_cli.py to check that no
test loads another.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

from hypothesis import settings

import qclass

settings.register_profile("exit-code-fuzz", max_examples=3000)

for _info in pkgutil.iter_modules(qclass.__path__):
    importlib.import_module(f"qclass.{_info.name}")
# as "workloads", the name bench/test_workloads.py imports it by
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
sys.modules["workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sys.modules["workloads"])


def local_modules() -> frozenset[str]:
    """Names of the loaded modules of this repository whose literals
    Hypothesis reads: none in a test directory or named test_*."""
    root = Path(__file__).resolve().parents[1]
    names = set()
    for name, module in list(sys.modules.items()):
        path = Path(getattr(module, "__file__", None) or "/").resolve()
        if (path.is_relative_to(root) and not {"test", "tests"} & set(path.parts)
                and not path.stem.startswith("test_") and not path.stem.endswith("_test")):
            names.add(name)
    return frozenset(names)


SESSION_MODULES = local_modules()
