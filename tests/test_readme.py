"""README's examples run against the package as it is, and the facts it
states about the CLI and the test suites hold."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from graphcompose import cli
from graphcompose.errors import DataError, NumericError, UsageError

from .conftest import make_synthetic

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = "/tmp/demo"
RUNS_DIR = "/tmp/runs"


def section(title: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def code_blocks(text: str, lang: str = "") -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def shell_lines(block: str) -> list[str]:
    """The block's commands, with backslash continuations joined."""
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def library_use_block() -> str:
    return code_blocks(section("Library use"), "python")[0]


def test_library_use_example_runs(tmp_path):
    data = tmp_path / "demo"
    make_synthetic([
        "--out", str(data), "--nodes", "200", "--classes", "3", "--features", "24",
        "--standard-split", "--val", "60", "--test", "60",
    ])
    code = library_use_block()
    # The example reads the dataset the Quick start writes.
    assert code.count(f'"{DEMO_DIR}"') == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code.replace(DEMO_DIR, str(data)), "README.md", "exec"), {})
    printed = out.getvalue().split()
    assert printed and 0.0 <= float(printed[-1]) <= 1.0


def test_quick_start_runs(tmp_path, capsys):
    lines = shell_lines(code_blocks(section("Quick start"))[0])
    paths = {DEMO_DIR: str(tmp_path / "demo"), RUNS_DIR: str(tmp_path / "runs")}
    for line in lines:
        readme_argv = shlex.split(line)
        assert {t for t in readme_argv if t.startswith("/tmp/")} <= paths.keys(), line
        argv = [paths.get(token, token) for token in readme_argv]
        if argv[:2] == ["python3", "scripts/make_synthetic.py"]:
            make_synthetic(argv[2:])
        else:
            assert argv[0] == "graphcompose", line
            code = cli.main(argv[1:])
            assert code == 0, f"{line}: exit {code}: {capsys.readouterr().err}"


def test_exit_codes_table():
    rows = re.findall(r"^\| (\d+) \| (.+?) \|$", section("Exit codes"), re.M)
    table = {int(code): meaning for code, meaning in rows}
    assert len(table) == len(rows)
    assert table.pop(0) == "success"
    kinds = {"usage error": UsageError, "data error": DataError, "numeric failure": NumericError}
    for code, meaning in table.items():
        named = [cls for kind, cls in kinds.items() if meaning.startswith(kind)]
        assert len(named) == 1, meaning
        assert named[0].exit_code == code, meaning
    assert sorted(table) == sorted(cls.exit_code for cls in kinds.values())


def pytest_commands() -> list[list[str]]:
    """Each pytest command in the Tests section, as the arguments after
    `-m pytest`, up to the first shell redirection or pipe."""
    commands = []
    for block in code_blocks(section("Tests")):
        for line in shell_lines(block):
            argv = shlex.split(line)
            start = argv.index("pytest") + 1
            args = []
            for token in argv[start:]:
                if token in ("|", "2>&1") or token.startswith(">"):
                    break
                args.append(token)
            commands.append(args)
    return commands


def test_named_test_commands_exist():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    markers = {m.split(":")[0] for m in pyproject["tool"]["pytest"]["ini_options"]["markers"]}
    options = set(re.findall(
        r'addoption\(\s*"(--[\w-]+)"', (ROOT / "tests" / "conftest.py").read_text(encoding="utf-8")
    ))
    commands = pytest_commands()
    assert commands
    for args in commands:
        paths, names = [], []
        it = iter(args)
        for token in it:
            if token == "-m":
                marker = next(it)
                assert marker in markers, f"marker {marker!r} is not registered"
            elif token == "-k":
                names.append(next(it))
            elif token.startswith("--"):
                assert token in options, f"{token} is not added in tests/conftest.py"
            elif not token.startswith("-"):
                assert (ROOT / token).exists(), f"{token} does not exist"
                paths.append(ROOT / token)
        for name in names:
            assert re.fullmatch(r"\w+", name), f"-k {name!r} is not a plain name"
            tests = [t for p in paths if p.suffix == ".py"
                     for t in re.findall(r"^\s*def (test_\w+)", p.read_text(encoding="utf-8"), re.M)]
            assert any(name in t for t in tests), f"-k {name} matches no test in {args}"
