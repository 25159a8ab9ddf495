"""The examples in README.md run and print what README.md shows."""

import re
from pathlib import Path

from permcodes.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# a ```sh block of one permcodes command, then the ```text block it prints
CLI_EXAMPLE = re.compile(r"```sh\npermcodes (.*?)\n```\n\n```text\n(.*?)```", re.DOTALL)


def test_library_example_output(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    want = [
        line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")
    ]
    assert want == ["105 103", "218026"]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == want


def test_cli_examples_output(tmp_path, monkeypatch, capsys):
    # one directory, in README order: verify reads the pc.txt construct writes
    monkeypatch.chdir(tmp_path)
    examples = CLI_EXAMPLE.findall(README.read_text())
    assert [args.split()[0] for args, _ in examples] == [
        "table", "construct", "verify", "compare", "compare", "field", "code-search"
    ]
    for args, want in examples:
        assert main(args.replace("\\\n", " ").split()) == 0, args
        assert capsys.readouterr().out == want, args
