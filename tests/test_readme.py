"""The README's code block must run and say true things, and the
library names it spells out must exist."""

import importlib
import re
from pathlib import Path

import ncgames

README = Path(__file__).parent.parent / "README.md"


def test_readme_example_runs_and_matches_its_comments():
    text = README.read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)

    from ncgames import nash_equilibria

    assert nash_equilibria(namespace["game"]) == {
        frozenset({"r", "y"}),
        frozenset({"l", "n"}),
    }
    assert namespace["result"].style == "choice-set"


def library_names(text):
    """The backticked dotted names that name library code: those under
    ``ncgames`` and those headed by a capitalized name, which must be a
    class the package exports."""
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for span in re.findall(r"`([^`]+)`", prose):
        if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span):
            head = span.split(".")[0]
            if head == "ncgames" or head[0].isupper():
                yield span


def resolves(dotted):
    """``ncgames.<module>...`` through import and ``getattr``, the rest
    from the package; a dataclass field counts as an attribute."""
    parts = dotted.split(".")
    if parts[0] == "ncgames":
        obj, rest = importlib.import_module(".".join(parts[:2])), parts[2:]
    else:
        obj, rest = ncgames, parts
    for attr in rest:
        fields = getattr(obj, "__dataclass_fields__", {})
        if attr in fields:
            obj = fields[attr]
        elif hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:
            return False
    return True


def test_readme_names_only_library_code_that_exists():
    names = sorted(set(library_names(README.read_text())))
    assert "TreeMorphism.play_images" in names
    assert [name for name in names if not resolves(name)] == []
