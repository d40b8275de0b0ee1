"""Every third-party module the CLI imports is declared in pyproject.toml."""

import json
import re
import subprocess
import sys
import sysconfig
import tomllib
from importlib.metadata import packages_distributions
from pathlib import Path

from conftest import ROOT, subprocess_env

# the new top-level modules that importing the CLI loads, with their files
IMPORTED = """
import json, sys
before = set(sys.modules)
import specorder.cli
print(json.dumps({name: getattr(sys.modules[name], "__file__", None)
                  for name in set(sys.modules) - before if "." not in name}))
"""


def normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def test_cli_imports_only_declared_dependencies():
    run = subprocess.run([sys.executable, "-c", IMPORTED], env=subprocess_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    imported = json.loads(run.stdout)
    # the interpreter's own library also holds generated modules such as
    # _sysconfigdata_*, which sys.stdlib_module_names does not list
    stdlib_dir = Path(sysconfig.get_path("stdlib")).resolve()
    third_party = {name for name, file in imported.items()
                   if name not in sys.stdlib_module_names and name != "specorder"
                   and not (file and Path(file).resolve().parent == stdlib_dir)}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {normalized(re.match(r"[A-Za-z0-9_.-]+", spec).group())
                    for spec in tomllib.load(fh)["project"]["dependencies"]}
    distributions = packages_distributions()
    undeclared = {name for name in third_party
                  if not {normalized(d) for d in distributions.get(name, [name])} & declared}
    assert "numpy" in third_party
    assert not undeclared, f"imported but not declared in pyproject.toml: {sorted(undeclared)}"
