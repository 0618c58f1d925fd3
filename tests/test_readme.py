"""README examples run as written: the Quick tour and the problem-file schema."""
import json
import re
from pathlib import Path

import pytest

from fracvar.cli import _TASKS, ProblemFileError, resolve

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(lang, after):
    """The first ```lang fenced block that follows the heading `after`."""
    start = README.index(after)
    match = re.compile(rf"```{lang}\n(.*?)```", re.DOTALL).search(README, start)
    return match.group(1)


def task_table():
    """task -> (sections it needs, sections it refuses), from the README."""
    table = README[README.index("### Tasks and outputs"):]
    rows = re.findall(r"^\| `([a-z-]+)` +\|([^|]*)\|([^|]*)\|", table, re.MULTILINE)
    return {task: (tuple(re.findall(r"`(\w+)`", needs)),
                   tuple(re.findall(r"`(\w+)`", refuses)))
            for task, needs, refuses in rows}


def test_quick_tour_runs():
    exec(compile(block("python", "## Quick tour"), "README Quick tour", "exec"), {})


def test_task_table_matches_cli():
    assert task_table() == {
        task: (requires, refuses) for task, (_, requires, refuses) in _TASKS.items()
    }


@pytest.mark.parametrize("task", list(task_table()))
def test_schema_example_resolves(task):
    text = block("jsonc", "### Problem file schema")
    doc = json.loads(re.sub(r"//.*$", "", text, flags=re.MULTILINE))
    doc["task"] = task
    if task == "solve":
        with pytest.raises(ProblemFileError, match="task solve: does not take 'constraint'"):
            resolve(doc)
    else:
        assert resolve(doc)["task"] == task
