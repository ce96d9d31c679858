"""Registry of the fourteen detectors behind one fit/score contract.

Every entry exposes ``fit(train, cfg) -> model`` and
``score(model, cfg, train, test) -> scores``: the model is whatever the
entry's fit returns, and the scores are a 1-D float array with one score
per test point, oriented so that higher means more anomalous.
"""

from __future__ import annotations

from ..errors import UnknownDetector
from .ml import (
    DbscanDetector,
    GbtDetector,
    IforestDetector,
    KMeansDetector,
    LofDetector,
    OcsvmDetector,
)
from .neural import AutoencoderDetector, MlpDetector
from .statistical import (
    ArDetector,
    ArimaDetector,
    EsDetector,
    MaDetector,
    PciDetector,
    SesDetector,
)

__all__ = ["REGISTRY", "DETECTOR_NAMES", "get_detector", "catalog_lines"]

_DETECTOR_CLASSES = (
    ArDetector,
    MaDetector,
    ArimaDetector,
    SesDetector,
    EsDetector,
    PciDetector,
    KMeansDetector,
    DbscanDetector,
    LofDetector,
    IforestDetector,
    OcsvmDetector,
    GbtDetector,
    MlpDetector,
    AutoencoderDetector,
)

REGISTRY = {cls.name: cls() for cls in _DETECTOR_CLASSES}
DETECTOR_NAMES = tuple(REGISTRY)


def get_detector(name: str):
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnknownDetector(name, DETECTOR_NAMES) from None


def catalog_lines() -> list[str]:
    """Human-readable catalog: name, family, hyperparameter keys, defaults."""
    lines = []
    for name, detector in REGISTRY.items():
        lines.append(f"{name} [{detector.family}]")
        doc = (detector.__class__.__doc__ or "").strip().splitlines()
        if doc:
            lines.append(f"  {doc[0]}")
        for key in sorted(detector.params):
            lines.append(f"  {key} = {detector.params[key]}")
    return lines
