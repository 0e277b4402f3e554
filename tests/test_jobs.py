"""Every ``jobs/*.py`` script imports: the names it takes from ``repro``
still exist. The jobs keep their work behind ``if __name__ ==
"__main__"``, so importing one runs no table."""
import importlib.util
import sys
from pathlib import Path

import pytest

JOBS = sorted((Path(__file__).resolve().parent.parent / "jobs").glob("*.py"))


@pytest.mark.parametrize("path", JOBS, ids=[p.stem for p in JOBS])
def test_job_imports(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # jobs prepend their dir
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
