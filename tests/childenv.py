"""The environment for the CLI processes the tests start."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, so a child imports this ``leraytop`` whether or not the
    package is installed."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + os.pathsep + path if path else SRC)
