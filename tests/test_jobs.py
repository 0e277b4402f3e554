"""Every ``jobs/*.py`` script imports: the names it takes from ``repro``
still exist. The jobs keep their work behind ``if __name__ ==
"__main__"``, so importing one runs no table. EXPERIMENTS.md is what
``jobs/reproduce.py`` renders from the results files."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
JOBS = sorted((ROOT / "jobs").glob("*.py"))


def _import(path: Path):
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", JOBS, ids=[p.stem for p in JOBS])
def test_job_imports(path):
    _import(path)


def test_experiments_md_is_rendered_from_results():
    """EXPERIMENTS.md is EXPERIMENTS.template.md with each table's
    section rendered from ``results/table<N>_bench.json``: prose is
    edited in the template, numbers come only from the results."""
    job = _import(ROOT / "jobs" / "reproduce.py")
    assert job.experiments_md() == (ROOT / "EXPERIMENTS.md").read_text()
