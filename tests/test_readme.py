"""The library example in README.md runs and prints what its comments say."""

from pathlib import Path

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
