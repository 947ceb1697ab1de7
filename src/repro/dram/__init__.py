"""Analog-behavioral DRAM device model (the paper's silicon substrate).

Layering, bottom-up:

* :mod:`repro.dram.analog` — charge sharing and sense-amplifier math
* :mod:`repro.dram.variation` — process and design-induced variation
* :mod:`repro.dram.calibration` — per-die model constants
* :mod:`repro.dram.decoder` — multi-row activation patterns (§4)
* :mod:`repro.dram.batch` — the bank state machine, over one trial or a
  block of trials
* :mod:`repro.dram.subarray` / :mod:`repro.dram.bank` — cell state and
  the bank
* :mod:`repro.dram.chip` / :mod:`repro.dram.module` — chip and lock-step
  module assemblies
"""

from .bank import SENSE_LATENCY_NS, Bank
from .calibration import DieCalibration, calibration_for
from .chip import Chip
from .config import (
    ActivationSupport,
    ChipConfig,
    ChipGeometry,
    Manufacturer,
    ModuleSpec,
)
from .decoder import (
    FIG5_COVERAGE,
    ActivationKind,
    ActivationPattern,
    CalibratedDecoder,
    HierarchicalRowDecoder,
    make_decoder,
)
from .module import Module
from .subarray import Subarray
from .timing import ReducedTiming, TimingParameters, timing_for_speed
from .variation import DistanceRegions, Region, StripeVariation

__all__ = [
    "ActivationKind",
    "ActivationPattern",
    "ActivationSupport",
    "Bank",
    "CalibratedDecoder",
    "Chip",
    "ChipConfig",
    "ChipGeometry",
    "DieCalibration",
    "DistanceRegions",
    "FIG5_COVERAGE",
    "HierarchicalRowDecoder",
    "Manufacturer",
    "Module",
    "ModuleSpec",
    "ReducedTiming",
    "Region",
    "SENSE_LATENCY_NS",
    "StripeVariation",
    "Subarray",
    "TimingParameters",
    "calibration_for",
    "make_decoder",
    "timing_for_speed",
]
