"""Every package name that README.md puts in backticks resolves."""
import importlib
import inspect
import re
from pathlib import Path

import fptrack

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("fptrack", "core", "async_sim", "domains")  # heads of dotted package names
SKIPPED = ("np", "Generator", "family", "graph", "stats")  # numpy and instance names
EXPORTERS = ("fptrack", "fptrack.problems", "fptrack.experiments")


def dotted_names(text) -> list:
    """The dotted names in backticks, each without its call arguments."""
    names = (re.match(r"[A-Za-z_][\w.]*", span) for span in re.findall(r"`([^`\n]+)`", text))
    return sorted({m[0] for m in names if m and "." in m[0]})


def assigned_in_init(cls, attr) -> bool:
    try:
        source = inspect.getsource(cls.__init__)
    except (OSError, TypeError):  # an __init__ without Python source
        return False
    return re.search(rf"\bself\.{attr}\b(\s*,\s*self\.\w+)*\s*=(?!=)", source) is not None


def resolves(name) -> bool:
    """A module path (``core.*`` and the like name ``fptrack`` modules) to an
    attribute, or ``Class.attr`` of a class that the package exports."""
    head, *rest = name.split(".")
    if head in MODULES:
        parts = [head, *rest] if head == "fptrack" else ["fptrack", head, *rest]
        obj = fptrack
        for k in range(1, len(parts)):
            if hasattr(obj, parts[k]):
                obj = getattr(obj, parts[k])
                continue
            try:
                obj = importlib.import_module(".".join(parts[:k + 1]))
            except ModuleNotFoundError:
                return False
        return True
    classes = [getattr(importlib.import_module(m), head, None) for m in EXPORTERS]
    cls = next((c for c in classes if inspect.isclass(c)), None)
    return cls is not None and len(rest) == 1 and (
        hasattr(cls, rest[0]) or assigned_in_init(cls, rest[0]))


def test_every_package_name_in_the_readme_resolves():
    names = [n for n in dotted_names(README.read_text()) if n.split(".")[0] not in SKIPPED]
    assert len(names) >= 20
    assert [n for n in names if not resolves(n)] == []


def test_a_name_that_does_not_resolve_is_found():
    text = ("`async_sim._no_such_tick`, `MapFamily.no_such(x, t)`, `core.no_module.f`, "
            "`Unexported.attr`, `PowerNetwork.noload`, `fptrack.schema.TABLE`, "
            "`MapFamily.evaluate(x, t)`, `ExperimentConfig.memo`")
    names = dotted_names(text)
    assert "MapFamily.no_such" in names and "MapFamily.evaluate" in names
    assert [n for n in names if not resolves(n)] == [
        "MapFamily.no_such", "Unexported.attr", "async_sim._no_such_tick", "core.no_module.f"]
