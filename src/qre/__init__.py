"""qre — quantum resource estimator for modular surface-code architectures.

Compiles widgetized logical circuits to graph states, schedules their
lattice-surgery preparation and measurement-based consumption onto a modular
superconducting architecture, solves for the minimal code distance and
T-factory, and reports space, time, power, and energy requirements.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name: str):
    """``qre._sim`` on first access: the dense simulator, and numpy with it,
    is imported when something asks for it, never by ``import qre``."""
    if name == "_sim":
        return importlib.import_module(f"{__name__}._sim")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
