"""The CLI's exit contract over the whole config schema.

Each key of `config.SCHEMA`, in turn, is set to each value of its type's grid in each base config, and `design`,
`analyze` and, where the base config has a [scenario] section, `simulate` run on the result in process.  Every run
must exit 0, 2, 3 or 4, never with an uncaught exception, and every exit-2 message must name a [section] of the
schema.  The walk is generated from the schema, so a key added to it later is covered without editing this file.
"""
import re

import pytest

from rfobkit.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_INFEASIBLE, EXIT_OK, main
from rfobkit.config import SCHEMA
from test_cli import CONFIGS, FOLD_CFG, REDESIGN_CFG

FLOATS = ("nan", "inf", "-inf", "0.0", "-0.0", "1e-310", "1e-300", "1e300", "-1.0", "x")
GRIDS = {
    "float": FLOATS,
    "opt_float": FLOATS,
    "int": ("0", "-1", str(10 ** 22), "1.5", "x"),
    "bool": ("x", "", "2"),
    "str": ("x", "", "on off"),
}


def grid(section: str, key: str) -> tuple[str, ...]:
    """The values a key is walked over: its type's grid; a `floats` key also takes lists of the wrong length and
    of non-finite values."""
    spec = SCHEMA[section][key]
    if spec.typ != "floats":
        return GRIDS[spec.typ]
    n = len(spec.default)
    return ("x", "", "1.0", ", ".join(["1.0"] * (n + 1)), ", ".join(["nan"] * n), ", ".join(["inf"] * n),
            ", ".join(["1e300"] * n))


def cut_phases(text: str, duration: str = "0.02") -> str:
    return re.sub(r"(?m)^duration_s = .*$", f"duration_s = {duration}", text)


BASES = {
    **{path.stem: cut_phases(path.read_text()) for path in sorted(CONFIGS.glob("*.cfg"))},
    "fold_twin": FOLD_CFG,
    "redesign_twin": REDESIGN_CFG,
}
RUNS = [(name, command) for name, text in BASES.items()
        for command in ("design", "analyze", "simulate") if command != "simulate" or "[scenario]" in text]
NAMED_SECTION = re.compile(r"\[(" + "|".join(SCHEMA) + r")\]")


def with_value(text: str, section: str, key: str, value: str) -> str:
    """`text` with `key = value` in its first [section], which replaces the key's line or is added; a missing
    section is appended."""
    lines = text.splitlines()
    header = f"[{section}]"
    if header not in lines:
        return f"{text}\n{header}\n{key} = {value}\n"
    start = lines.index(header) + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    at = next((i for i in range(start, end) if lines[i].partition("=")[0].strip() == key), None)
    if at is None:
        lines.insert(start, f"{key} = {value}")
    else:
        lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def test_with_value_replaces_or_adds_the_key_in_its_section():
    text = "[plant]\nM_m_kg = 3.02\n\n[phase]\nmode = force\n\n[phase]\nmode = force\n"
    assert with_value(text, "plant", "M_m_kg", "x") == text.replace("3.02", "x")
    assert with_value(text, "phase", "value", "1") == (
        "[plant]\nM_m_kg = 3.02\n\n[phase]\nvalue = 1\nmode = force\n\n[phase]\nmode = force\n")
    assert with_value(text, "dob", "g_v_rad_per_s", "0") == text + "\n[dob]\ng_v_rad_per_s = 0\n"


@pytest.mark.parametrize("base, command", RUNS)
def test_every_schema_value_exits_with_a_contract_code(tmp_path, capsys, base, command):
    cfg, failures = tmp_path / "walk.cfg", []
    for section, keys in SCHEMA.items():
        for key in keys:
            for value in grid(section, key):
                cfg.write_text(with_value(BASES[base], section, key, value))
                try:
                    code = main([command, "--config", str(cfg)])
                except Exception as exc:  # any exception that escapes main breaks the contract
                    code = f"{type(exc).__name__}: {exc}"
                err = capsys.readouterr().err
                if code not in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_DIVERGED):
                    failures.append(f"[{section}] {key} = {value}: {code}")
                elif code == EXIT_CONFIG and not NAMED_SECTION.search(err):
                    failures.append(f"[{section}] {key} = {value}: exit 2 names no section: {err.strip()}")
    assert failures == []
