"""The kernel backend name recorded in every ``perfbench/`` run report."""

from __future__ import annotations


def active_backend() -> str:
    """The kernel backend name, always ``"numpy"``.

    There is one implementation, so this is a constant.  It stays because
    the ``perfbench/`` worker records it in every run report and the
    harness requires the value ``"numpy"``.
    """
    return "numpy"
