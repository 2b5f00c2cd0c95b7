"""Source-level rules that no runtime test can see."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nmshallow"
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ENV_NAMES:
            hits.append(f"{path.name}:{node.lineno} {name}")
    return hits


def test_no_environment_variable_reaches_the_package():
    # behaviour, guards included, is set by arguments and configs only
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    hits = [hit for path in sources for hit in _env_reads(path)]
    assert hits == []
