"""The command line on malformed input files.

Every run must end in exit code 0, 2, 3 or 4 with no Python traceback,
whatever its `.mini`, `.suite`, `.vuln.json` or `.graph.json` file holds.
The reproducers are inputs that once crashed the CLI; the generated-input
tests mutate corpus files with Hypothesis, derandomized so that every run
tries the same inputs.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathpatch.cli import run

from conftest import CORPUS, CORPUS_NAMES
from helpers import SQUARING

EXIT_CODES = {0, 2, 3, 4}
GENERATED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
# small limits keep a mutated program that loops or allocates cheap
LIMITS = ["--max-steps", "5000", "--max-heap-cells", "10000"]


def run_captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv) -> None:
    code, out, err = run_captured(argv)
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in out + err
    if code in (2, 3):
        assert err.startswith("error: ") and err.count("\n") == 1, err


def abstract_graph() -> dict:
    return json.loads((CORPUS / "abstract.graph.json").read_text())


def edited_graph(edit) -> str:
    doc = abstract_graph()
    edit(doc)
    return json.dumps(doc)


DEEP = "[" * 100_000  # deeper than the JSON decoder's recursion limit
# more digits than Python converts to an int (4300 by default)
DIGITS = "1" * 5000
REPRODUCERS = {
    # --vuln for corpus/bmp_reader.mini
    "vuln-number": ("vuln", "5"),
    "vuln-function-list": ("vuln", '{"function": ["a"]}'),
    "vuln-exploit-input-string": ("vuln", '{"function": "read_image", "exploit": {"input": ["x"]}}'),
    "vuln-exploit-string": ("vuln", '{"function": "read_image", "exploit": "abc"}'),
    "vuln-statement-list": ("vuln", '{"function": "read_image", "statement": ["s"]}'),
    "vuln-deep": ("vuln", DEEP),
    "vuln-line-5000-digits": ("vuln", f'{{"function": "read_image", "line": {DIGITS}}}'),
    "vuln-exploit-input-5000-digits": (
        "vuln", f'{{"function": "read_image", "exploit": {{"input": [{DIGITS}]}}}}'
    ),
    # corpus/abstract.graph.json, edited
    "graph-block-without-id": (
        "graph", edited_graph(lambda doc: doc["functions"][0]["blocks"][0].pop("id"))
    ),
    "graph-functions-true": ("graph", edited_graph(lambda doc: doc.update(functions=True))),
    "graph-short-edge": (
        "graph", edited_graph(lambda doc: doc["functions"][0]["edges"].__setitem__(0, ["a"]))
    ),
    "graph-vulnerable-string": ("graph", edited_graph(lambda doc: doc.update(vulnerable="x"))),
    "graph-short-call": ("graph", edited_graph(lambda doc: doc.update(calls=[["f"]]))),
    "graph-document-list": ("graph", "[1]"),
    "graph-deep": ("graph", DEEP),
    "graph-number-5000-digits": ("graph", f'{{"schema": "x", "functions": [{DIGITS}]}}'),
}


@pytest.mark.parametrize("case", REPRODUCERS)
def test_malformed_input_is_an_input_error(tmp_path, case):
    kind, text = REPRODUCERS[case]
    if kind == "vuln":
        vuln = tmp_path / "v.json"
        vuln.write_text(text)
        argv = ["analyze", "--program", CORPUS / "bmp_reader.mini", "--vuln", vuln]
    else:
        graph = tmp_path / "g.graph.json"
        graph.write_text(text)
        argv = ["analyze", "--program", graph]
    code, out, err = run_captured(argv)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "source",
    [
        f"fn main() -> int {{ return {DIGITS}; }}\n",
        f"fn main() -> int errval {DIGITS} {{ return 0; }}\n",
        f"fn main() -> int errval -{DIGITS} {{ return 0; }}\n",
    ],
    ids=["expression", "errval", "negative-errval"],
)
def test_integer_literal_of_5000_digits_is_an_input_error(tmp_path, source):
    program = tmp_path / "p.mini"
    program.write_text(source)
    vuln = tmp_path / "v.json"
    vuln.write_text('{"function": "main", "line": 1}')
    code, out, err = run_captured(["analyze", "--program", program, "--vuln", vuln])
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "5000 digits" in err


def test_a_squaring_loop_ends_in_a_report(tmp_path):
    """`x = x * x` forty times would build a number of 2**40 bits; the
    value budget ends each such run with status timeout instead."""
    program = tmp_path / "squaring.mini"
    program.write_text(SQUARING)
    vuln = tmp_path / "squaring.vuln.json"
    vuln.write_text('{"function": "main", "line": 10, "exploit": {"input": [3, 9]}}')
    suite = tmp_path / "squaring.suite"
    suite.write_text("grows | input: 3, 1 | expect: 0\nstays | input: 1, 2 | expect: 0\n")
    code, out, err = run_captured(
        ["all", "--program", program, "--vuln", vuln, "--suite", suite, "--fuzz", "20",
         "--out", tmp_path / "out"]
    )
    assert code == 0, err
    assert "Traceback" not in out + err


# `main` with a parameter, which no run can pass
MAIN_WITH_PARAMETER = """fn f(y: int) -> int {
    if (y > 0) {
        let z: int = y + 1;
        return z;
    }
    return y;
}
fn main(y: int) -> int { let r: int = f(y); return r; }
"""


@pytest.mark.parametrize("command", ["analyze", "evaluate", "all"])
def test_main_with_parameters_is_an_input_error(tmp_path, command):
    """The error names main's line, and no result file is written."""
    program = tmp_path / "p.mini"
    program.write_text(MAIN_WITH_PARAMETER)
    vuln = tmp_path / "v.json"
    vuln.write_text('{"function": "f", "line": 3}')
    suite = tmp_path / "p.suite"
    suite.write_text("up | input: 1 | expect: 2\n")
    out = tmp_path / "out"
    argv = [command, "--program", program, "--vuln", vuln, "--out", out]
    if command != "analyze":
        argv += ["--suite", suite]
    code, _, err = run_captured(argv)
    assert code == 3
    assert err == "error: main takes no parameters at line 8\n"
    assert not out.exists()


EXTERNAL_MAIN = MAIN_WITH_PARAMETER.replace(
    "fn main(y: int) -> int { let r: int = f(y); return r; }", "extern fn main() -> int;"
)


@pytest.mark.parametrize("command", ["analyze", "locate", "all"])
def test_external_main_is_an_input_error(tmp_path, command):
    """No run can start in a main with no body: the error names main's
    line, not the vulnerability no chain reaches, and nothing is written."""
    program = tmp_path / "p.mini"
    program.write_text(EXTERNAL_MAIN)
    vuln = tmp_path / "v.json"
    vuln.write_text('{"function": "f", "line": 3}')
    suite = tmp_path / "p.suite"
    suite.write_text("up | input: 1 | expect: 2\n")
    out = tmp_path / "out"
    argv = [command, "--program", program, "--vuln", vuln, "--out", out]
    if command == "all":
        argv += ["--suite", suite]
    code, _, err = run_captured(argv)
    assert code == 3
    assert err == "error: main has no body at line 8\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line, what",
    [
        (f"big | input: 1, -{'7' * 4301} | expect: 0", "inputs"),
        (f"big | input: 1 | expect: 0, {'7' * 4301}", "expected outputs"),
    ],
    ids=["input", "expected-output"],
)
def test_suite_integer_past_the_digit_limit_has_its_own_message(tmp_path, line, what):
    """A valid integer that Python refuses to convert is named as too long,
    not as something that is not an integer."""
    suite = tmp_path / "p.suite"
    suite.write_text("ok | input: 1 | expect: 1\n" + line + "\n")
    out = tmp_path / "out"
    code, _, err = run_captured([
        "evaluate", "--program", CORPUS / "twopath.mini",
        "--vuln", CORPUS / "twopath.vuln.json", "--suite", suite, "--out", out,
    ])
    assert code == 3
    assert err == (
        f"error: line 2: {what}: an integer of 4301 digits is too long (more than 4300 digits)\n"
    )
    assert not out.exists()


def test_program_that_is_not_utf8_is_an_input_error(tmp_path):
    program = tmp_path / "p.mini"
    program.write_bytes(b"\x80" + (CORPUS / "bmp_reader.mini").read_bytes())
    code, out, err = run_captured(
        ["analyze", "--program", program, "--vuln", CORPUS / "bmp_reader.vuln.json"]
    )
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err


BMP = ["--program", CORPUS / "bmp_reader.mini", "--vuln", CORPUS / "bmp_reader.vuln.json"]
# (argv, the path its error line must name), given an existing plain file
WRONG_KIND_PATHS = {
    "program-directory": lambda f: (
        ["analyze", "--program", CORPUS, "--vuln", CORPUS / "bmp_reader.vuln.json"], CORPUS
    ),
    "vuln-directory": lambda f: (
        ["analyze", "--program", CORPUS / "bmp_reader.mini", "--vuln", CORPUS], CORPUS
    ),
    "suite-directory": lambda f: (["evaluate", *BMP, "--suite", CORPUS], CORPUS),
    "out-is-a-file": lambda f: (["analyze", *BMP, "--out", f], f),
    "out-under-a-file": lambda f: (["analyze", *BMP, "--out", f / "sub"], f / "sub"),
}


@pytest.mark.parametrize("case", WRONG_KIND_PATHS)
def test_path_of_the_wrong_kind_is_a_usage_error(tmp_path, case):
    plain = tmp_path / "plain"
    plain.write_text("")
    argv, named = WRONG_KIND_PATHS[case](plain)
    code, out, err = run_captured(argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(str(named)) in err


@pytest.mark.parametrize(
    "command, name",
    [
        ("analyze", "path_graph.json"),
        ("locate", "candidates.json"),
        ("evaluate", "report.json"),
        ("evaluate", "report.txt"),
    ],
)
def test_output_file_that_is_a_directory_is_a_usage_error(tmp_path, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    suite = ["--suite", CORPUS / "bmp_reader.suite"] if command == "evaluate" else []
    code, stdout, err = run_captured([command, *BMP, *suite, "--out", out])
    assert code == 2
    assert "Traceback" not in stdout + err
    assert err.startswith(f"error: cannot write {out / name}: ") and err.count("\n") == 1, err


# --- generated inputs --------------------------------------------------------

TOKENS = [
    b"{", b"}", b"(", b")", b"[", b"]", b";", b",", b"|", b":", b"-", b"\n", b"#",
    b"0", b"99999999999", b"if", b"while", b"return", b"let", b"fn", b"nil", b"&",
    b"a[0]", b"read_input()", b"alloc(", b"FAULT", b"input:", b"expect:",
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 20)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def mutate_bytes(data, raw: bytes) -> bytes:
    """One to three edits: delete, duplicate or insert a few bytes, or
    truncate. Inserted bytes need not be UTF-8."""
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(raw)))
        j = data.draw(st.integers(i, min(len(raw), i + 12)))
        op = data.draw(st.sampled_from(["delete", "duplicate", "insert", "truncate"]))
        if op == "delete":
            raw = raw[:i] + raw[j:]
        elif op == "duplicate":
            raw = raw[:j] + raw[i:j] + raw[j:]
        elif op == "insert":
            raw = raw[:i] + data.draw(st.sampled_from(TOKENS) | st.binary(max_size=3)) + raw[i:]
        else:
            raw = raw[:i]
    return raw


def json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def mutate_json(data, doc) -> bytes:
    """Drop a key or item, or swap a value for another JSON value, once or
    twice; or edit the serialized bytes."""
    if data.draw(st.integers(0, 3)) == 0:
        return mutate_bytes(data, json.dumps(doc).encode())
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 2))):
        where = data.draw(st.sampled_from(list(json_paths(doc))))
        if not where:
            doc = data.draw(JSON_VALUES)
            continue
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[where[-1]]
        else:
            parent[where[-1]] = data.draw(JSON_VALUES)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


@GENERATED
@given(data=st.data(), name=st.sampled_from(CORPUS_NAMES))
def test_generated_programs(workdir, data, name):
    program = workdir / f"{name}.mini"
    program.write_bytes(mutate_bytes(data, (CORPUS / f"{name}.mini").read_bytes()))
    assert_clean_exit(
        ["all", "--program", program, "--vuln", CORPUS / f"{name}.vuln.json",
         "--suite", CORPUS / f"{name}.suite", "--fuzz", "3", *LIMITS]
    )


@GENERATED
@given(data=st.data(), name=st.sampled_from(CORPUS_NAMES))
def test_generated_suites(workdir, data, name):
    suite = workdir / f"{name}.suite"
    suite.write_bytes(mutate_bytes(data, (CORPUS / f"{name}.suite").read_bytes()))
    assert_clean_exit(
        ["evaluate", "--program", CORPUS / f"{name}.mini", "--vuln", CORPUS / f"{name}.vuln.json",
         "--suite", suite, *LIMITS]
    )


@GENERATED
@given(data=st.data())
def test_generated_vulnerability_specs(workdir, data):
    """twopath's suite has no exploit line, so the spec's own exploit runs."""
    vuln = workdir / "twopath.vuln.json"
    vuln.write_bytes(mutate_json(data, json.loads((CORPUS / "twopath.vuln.json").read_text())))
    assert_clean_exit(
        ["all", "--program", CORPUS / "twopath.mini", "--vuln", vuln,
         "--suite", CORPUS / "twopath.suite", *LIMITS]
    )


@GENERATED
@given(data=st.data())
def test_generated_graph_documents(workdir, data):
    graph = workdir / "abstract.graph.json"
    graph.write_bytes(mutate_json(data, abstract_graph()))
    assert_clean_exit(["locate", "--program", graph])
