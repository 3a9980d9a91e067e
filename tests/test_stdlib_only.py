"""The runtime imports nothing outside the standard library."""

import json
import os
import subprocess
import sys

import shiftlab

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import shiftlab, shiftlab.cli, shiftlab.verifysuite
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"shiftlab"})))
"""


def test_importing_shiftlab_loads_only_standard_library_modules():
    # -I: no PYTHON* variables, no user site; modules that site loads at
    # start-up are left out by taking the difference.  -B: -I ignores
    # PYTHONDONTWRITEBYTECODE, and bytecode left in src/ would change later
    # timings of the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftlab.__file__)))
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _PROBE, src], capture_output=True, text=True, timeout=60, check=True
    )
    assert json.loads(result.stdout) == []
