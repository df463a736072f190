"""`errors.opened`: the one place the package touches a file."""

import ast
from pathlib import Path

import pytest

import boundseg
from boundseg.errors import IoFailure, opened

PACKAGE = Path(boundseg.__file__).parent
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _file_calls(tree):
    """(line, enclosing function) of every call that opens a file."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = (callee.id if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute) else None)
            if name in FILE_CALLS:
                found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_files_are_opened_only_through_opened():
    stray = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, func in _file_calls(tree):
            if not (path.name == "errors.py" and func == "opened"):
                stray.append(f"{path.relative_to(PACKAGE)}:{line} in {func}")
    assert stray == []


def test_guard_sees_every_spelling_of_a_file_call():
    src = ("def f(p):\n"
           "    open(p)\n"
           "    p.open()\n"
           "    p.read_text()\n"
           "    p.write_bytes(b'')\n")
    assert [line for line, _ in _file_calls(ast.parse(src))] == [2, 3, 4, 5]


def test_text_round_trips_as_utf8(tmp_path):
    p = tmp_path / "t.txt"
    with opened(p, "w", "note") as f:
        f.write("café\n")
    assert p.read_bytes() == "café\n".encode("utf-8")
    with opened(p, "r", "note") as f:
        assert f.read() == "café\n"


def test_missing_file_is_io_failure(tmp_path):
    p = tmp_path / "absent" / "x.bin"
    with pytest.raises(IoFailure, match="cannot read note .*absent"):
        with opened(p, "rb", "note"):
            pass
    with pytest.raises(IoFailure, match="cannot write note .*absent"):
        with opened(p, "w", "note"):
            pass


def test_non_utf8_text_is_io_failure(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes(b"ok\n\xff\n")
    with pytest.raises(IoFailure, match="note .* is not UTF-8 text"):
        with opened(p, "r", "note") as f:
            f.read()


def test_unencodable_text_is_io_failure(tmp_path):
    # a lone surrogate, as os.fsdecode gives for a non-UTF-8 file name
    with pytest.raises(IoFailure, match="is not UTF-8 text"):
        with opened(tmp_path / "t.txt", "w", "note") as f:
            f.write("id\udcff\n")
