"""Every test module imports.  The tier-1 command collects with
``--continue-on-collection-errors``, where a module that stops importing
shows as one collection error beside hundreds of passes; this test fails
instead, naming the module and the error."""

import importlib
import traceback
from pathlib import Path


def test_every_test_module_imports():
    failures = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        try:
            importlib.import_module(path.stem)
        except Exception as exc:
            failures.append(f"{path.name}: "
                            + "".join(traceback.format_exception_only(exc)))
    assert not failures, "".join(failures)
