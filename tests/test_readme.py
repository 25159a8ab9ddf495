"""The examples in README.md run and print what README.md shows."""

from pathlib import Path

from permcodes.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_output(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    want = [
        line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")
    ]
    assert want == ["105 103", "218026"]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == want


def test_compare_amds_example_output(capsys):
    command = "permcodes compare --mode amds-vs-old --q 8,16 --alpha 2 --b 3/4"
    section = README.read_text().split(f"```sh\n{command}\n```\n", 1)[1]
    want = section.split("```text\n", 1)[1].split("```", 1)[0]
    assert main(command.split()[1:]) == 0
    assert capsys.readouterr().out == want
