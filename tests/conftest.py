import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pathpatch.cli import _vuln_from_json
from pathpatch.harness import load_suite
from pathpatch.minilang import load_program

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# Programs with a suite, a vulnerability spec, and a working exploit.
CORPUS_NAMES = ["bmp_reader", "mandatory", "twopath", "sideeffect", "dispatch"]


def pytest_configure(config):
    """Hypothesis caches what it learns about the code under test; keep that
    in a directory removed at the end of the run, not in `.hypothesis/`
    under the working directory."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture(autouse=True)
def python_limits_unchanged():
    """Fail a test that leaves the recursion limit or the integer string
    digit limit changed: the code under test must work within both as
    they are, and a test that sets one must restore it."""
    before = sys.getrecursionlimit(), sys.get_int_max_str_digits()
    yield
    assert (sys.getrecursionlimit(), sys.get_int_max_str_digits()) == before


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


def load_corpus_entry(name: str):
    """(program, vulnerability, suite) for one corpus program."""
    program = load_program(CORPUS / f"{name}.mini")
    raw = json.loads((CORPUS / f"{name}.vuln.json").read_text(encoding="utf-8"))
    vuln = _vuln_from_json(program, raw)
    suite = load_suite(CORPUS / f"{name}.suite").with_vulnerability(vuln)
    return program, vuln, suite


@pytest.fixture(scope="session")
def bmp_reader():
    return load_corpus_entry("bmp_reader")


@pytest.fixture(scope="session", params=CORPUS_NAMES)
def corpus_entry(request):
    return request.param, *load_corpus_entry(request.param)
