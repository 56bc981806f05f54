import re
from pathlib import Path

import dirquant

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_example() -> str:
    """The Python block of README's ``## Library`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    code = library_example()
    imported = re.search(r"from dirquant import \(([^)]*)\)", code).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(dirquant.__all__)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["s1"].k == namespace["fitted"].fit.k
    assert namespace["levels"].shape == (10,)
    assert capsys.readouterr().out


def test_readme_names_only_existing_scripts():
    names = set(re.findall(r"scripts/([\w-]+)\.py", README.read_text(encoding="utf-8")))
    assert names
    assert sorted(n for n in names if not (ROOT / "scripts" / f"{n}.py").is_file()) == []
