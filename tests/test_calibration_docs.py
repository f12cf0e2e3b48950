"""``docs/calibration.md`` §9 tables each calibration constant with the
value it prints and the module that holds it; this test keeps the table
and ``src/`` in step.

A row names one or more constants in its first cell (each in
backticks, separated by commas), their values in the second (separated
by ``", "``; ``6,000`` is one number, ``60 s`` and ``1 h`` are seconds,
a quoted string is a string) and the module in the third.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "calibration.md"
SECTION = "## 9. Where each calibration value lives"

#: Rows whose value is no module constant, with the reason.
EXEMPT = {
    "analog_provider_specs":
        "TransIP's .nl share is one field of the provider specs that "
        "function returns, not a constant of its own",
}

UNITS = {"s": 1, "h": 3600}


def _value(text):
    """A printed value as Python reads it."""
    text = text.strip().strip("`")
    number = re.fullmatch(r"([\d,]+(?:\.\d+)?)(?: (s|h))?", text)
    if number is None:
        return ast.literal_eval(text)
    digits, unit = number.groups()
    value = ast.literal_eval(digits.replace(",", ""))
    return value * UNITS[unit] if unit else value


def _rows():
    """``(constants, printed values, module cell)`` per table row."""
    section = DOC.read_text().split(SECTION, 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) != 4 or cells[0] == "Constant" \
                or cells[0].startswith("---"):
            continue
        names = re.findall(r"`(\w+)`", cells[0])
        yield names, cells[1].split(", "), cells[2]


ROWS = list(_rows())
CHECKED = [row for row in ROWS
           if not any(key in row[2] for key in EXEMPT)]


def test_the_section_has_a_table():
    assert len(CHECKED) > 20


@pytest.mark.parametrize("names, values, module_cell", CHECKED,
                         ids=[", ".join(row[0]) for row in CHECKED])
def test_each_tabled_constant_has_its_printed_value(names, values,
                                                    module_cell):
    module = importlib.import_module(re.search(r"`([\w.]+)`",
                                               module_cell).group(1))
    assert len(names) == len(values), (names, values)
    for name, printed in zip(names, values):
        assert hasattr(module, name), f"{module.__name__} has no {name}"
        assert getattr(module, name) == _value(printed), (
            name, getattr(module, name), printed)


def test_every_exemption_names_a_row():
    for key in EXEMPT:
        assert any(key in module_cell for _, _, module_cell in ROWS), key
