import os
import subprocess
import sys
from pathlib import Path

import spcd

# Forking a helper at import time (ctypes.util.find_library runs ldconfig or
# a compiler) adds the child's memory to the parent's RUSAGE_CHILDREN peak.
NO_SUBPROCESS = """
import pkgutil, subprocess
def refuse(self, *args, **kwargs):
    raise AssertionError(f"subprocess started at import: {args[:1]}")
subprocess.Popen.__init__ = refuse
import spcd
for module in pkgutil.iter_modules(spcd.__path__):
    if module.name != "__main__":  # importing it runs the CLI
        __import__(f"spcd.{module.name}")
"""


def test_importing_spcd_starts_no_subprocess():
    src = str(Path(spcd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = subprocess.run([sys.executable, "-c", NO_SUBPROCESS], env=env,
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
