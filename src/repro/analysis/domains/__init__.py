"""Abstract domains used by the value and loop-bound analyses."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Interval": "interval",
    "Congruence": "congruence",
    "AbstractValue": "memstate",
    "AbstractMemory": "memstate",
    "AbstractState": "memstate",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
