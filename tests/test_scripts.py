"""Smoke runs of the scripts under scripts/, each with tiny arguments."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    """Exit code and the JSON lines on stdout of ``scripts/<name>``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("name,args", [
    ("memorize_random_kb.py", ["--epochs", "2", "--entities", "10", "--facts", "20"]),
    ("rule_injection_benefit.py", ["--epochs", "2", "--entities", "30",
                                   "--leaf-facts", "10", "--ancestor-facts", "3",
                                   "--d", "8", "--seeds", "0"]),
])
def test_script_runs_and_reports_one_json_line(name, args):
    code, lines = run_script(name, *args)
    assert code == 0 and len(lines) == 1
    if name == "rule_injection_benefit.py":
        # the injected model still captures every rule after training
        assert [s["rules_captured"] for s in lines[0]["seeds"]] == [True]


def test_code_lines_counts_code_outside_docstrings(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module docstring,\nover two lines."""\n'
        "# a comment\n"
        "\n"
        "x = 1\n"
        "y = x  # a trailing comment\n", encoding="utf-8")
    code, lines = run_script("code_lines.py", str(tmp_path))
    assert code == 0 and len(lines) == 1
    assert lines[0]["total"] == 2 and lines[0]["modules"] == {"mod.py": 2}
