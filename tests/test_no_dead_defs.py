"""Guard against dead definitions in the library.

Every ``def`` and ``class`` name in ``src/repro`` must be referenced
somewhere besides its own definitions: in ``src/``, ``tests/``,
``benchmarks/`` or ``examples/``.  A name counts as referenced when it
appears as a word more often than it is defined, so a method defined on
several classes needs one use among all of them.  Dunder methods (called
by the language) and the ``_stmt_*`` methods of the program generator
(reached through ``getattr``) are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "benchmarks", "examples")
WORD = re.compile(r"\w+")


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or (
        name.startswith("_stmt_"))


def test_every_definition_is_referenced():
    words: Counter = Counter()
    defined: Counter = Counter()
    where: dict[str, str] = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            words.update(WORD.findall(text))
            if top != "src":
                continue
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defined[node.name] += 1
                    where.setdefault(
                        node.name,
                        f"{path.relative_to(ROOT)}:{node.lineno}")
    dead = sorted(
        f"{where[name]}: {name}" for name, count in defined.items()
        if not _exempt(name) and words[name] <= count
    )
    assert not dead, "definitions nothing references:\n" + "\n".join(dead)
