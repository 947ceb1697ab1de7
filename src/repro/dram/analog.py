"""Analog circuit behavior: charge sharing and sense amplification.

These are pure functions over numpy arrays — the stateful orchestration
lives in :mod:`repro.dram.batch`.  The math follows the paper's §6.1 model
(Fig. 13/14) generalized to a finite bitline capacitance:

    V_bitline = (C_b * V_pre + C_c * sum_i d_i * v_i) / (C_b + C_c * sum_i d_i)

where ``v_i`` are the voltages of the simultaneously activated cells on
the bitline and ``d_i`` a per-cell charge-transfer efficiency.  The
paper's simplified "mean of the cell voltages" model (footnote 10) is the
``C_b -> 0`` limit and is exposed as :func:`ideal_charge_share` for tests
and documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..units import VDD, VDD_HALF

__all__ = [
    "charge_share",
    "ideal_charge_share",
    "and_reference_voltage",
    "or_reference_voltage",
    "sense_differential",
    "coupling_disturbance",
    "SenseMarginBound",
    "worst_case_sense_margin",
]


def charge_share(
    cell_voltages: np.ndarray,
    cell_cap_ff: float,
    bitline_cap_ff: float,
    precharge: float = VDD_HALF,
    efficiencies: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Equilibrium bitline voltage after charge sharing.

    Parameters
    ----------
    cell_voltages:
        Array of shape ``(n_cells, columns)`` — the stored voltage of each
        activated cell on each bitline.  ``n_cells`` may be zero, in which
        case the bitline stays at ``precharge``.  A leading *trials* axis
        is also accepted (shape ``(trials, n_cells, columns)``); each
        trial slice is reduced exactly as the 2-D form, so batched and
        per-trial evaluation are bit-identical.
    cell_cap_ff, bitline_cap_ff:
        Capacitances in femtofarads.
    precharge:
        Initial bitline voltage (VDD/2 in the standard precharge scheme).
    efficiencies:
        Optional per-cell charge-transfer efficiency of shape
        ``(n_cells,)`` or ``(n_cells, columns)``; models design-induced
        variation in how completely a far cell's charge reaches the sense
        amplifier.  Defaults to 1 for every cell.

    Returns
    -------
    Array of shape ``(columns,)`` (or ``(trials, columns)``) with the
    shared bitline voltage.
    """
    cell_voltages = np.asarray(cell_voltages, dtype=np.float64)
    if cell_voltages.ndim not in (2, 3):
        raise ValueError(
            f"cell_voltages must be (n_cells, columns) or "
            f"(trials, n_cells, columns), got shape {cell_voltages.shape}"
        )
    if cell_cap_ff <= 0 or bitline_cap_ff <= 0:
        raise ValueError("capacitances must be positive")

    n_cells = cell_voltages.shape[-2]
    out_shape = cell_voltages.shape[:-2] + cell_voltages.shape[-1:]
    if n_cells == 0:
        return np.full(out_shape, precharge, dtype=np.float64)

    if efficiencies is None:
        eff = np.ones((n_cells, 1), dtype=np.float64)
    else:
        eff = np.asarray(efficiencies, dtype=np.float64)
        if eff.ndim == 1:
            eff = eff[:, np.newaxis]
        if eff.shape[0] != n_cells:
            raise ValueError(
                f"efficiencies first dimension {eff.shape[0]} does not match "
                f"n_cells {n_cells}"
            )

    # Reduce over the cell axis as axis 0 (a no-op transpose in the 2-D
    # case): np.add.reduce accumulates a non-innermost axis in strict
    # index order, which keeps the 3-D batched reduction bit-identical
    # to the per-trial 2-D reduction.
    cells_first = np.moveaxis(cell_voltages, -2, 0)
    eff = eff.reshape(eff.shape[:1] + (1,) * (cells_first.ndim - eff.ndim) + eff.shape[1:])
    charge = bitline_cap_ff * precharge + cell_cap_ff * np.sum(
        eff * cells_first, axis=0
    )
    capacitance = bitline_cap_ff + cell_cap_ff * np.sum(
        eff * np.ones_like(cells_first), axis=0
    )
    return charge / capacitance


def ideal_charge_share(cell_voltages: Sequence[float]) -> float:
    """The paper's zero-bitline-capacitance model: the mean cell voltage.

    Matches footnote 10: "after charge sharing, the bitline's voltage is
    the mean voltage value stored in DRAM cells that contribute".
    """
    voltages = list(cell_voltages)
    if not voltages:
        return VDD_HALF
    return float(sum(voltages)) / len(voltages)


def and_reference_voltage(n_inputs: int) -> float:
    """Ideal reference voltage V_AND for an N-input AND (§6.1.2).

    N-1 reference cells store VDD and one stores VDD/2, so the ideal
    shared voltage is ``(N - 0.5) * VDD / N`` — between the highest
    logic-0 compute voltage ``(N-1) * VDD / N`` and VDD.
    """
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
    return (n_inputs - 0.5) * VDD / n_inputs


def or_reference_voltage(n_inputs: int) -> float:
    """Ideal reference voltage V_OR for an N-input OR (§6.1.2).

    N-1 reference cells store GND and one stores VDD/2: ``0.5 * VDD / N``.
    """
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
    return 0.5 * VDD / n_inputs


def coupling_disturbance(differentials: np.ndarray) -> np.ndarray:
    """Per-column parasitic-coupling disturbance [VDD].

    Adjacent bitlines disturb each other in proportion to how
    *differently* they swing (Observation 16's hypothesis; [Al-Ars+
    2004], [Nakagome+ 1988]): the disturbance of a column is the mean
    absolute difference between its differential and its physical
    neighbors'; edge columns have one neighbor.  All-0s/all-1s data
    patterns develop identical voltages on every bitline (disturbance
    0); random operands spread the charge-shared voltages and couple at
    any fan-in — which is why the paper's data-pattern penalty holds
    "across every tested number of input operands".
    """
    d = np.asarray(differentials, dtype=np.float64)
    if d.ndim not in (1, 2):
        raise ValueError(
            f"differentials must be 1-D or (trials, columns), got shape {d.shape}"
        )
    if d.shape[-1] < 2:
        return np.zeros_like(d)
    delta = np.abs(np.diff(d, axis=-1))
    disturbance = np.empty_like(d)
    disturbance[..., 0] = delta[..., 0]
    disturbance[..., -1] = delta[..., -1]
    if d.shape[-1] > 2:
        disturbance[..., 1:-1] = 0.5 * (delta[..., :-1] + delta[..., 1:])
    return disturbance


@dataclass(frozen=True)
class SenseMarginBound:
    """Static worst-case sense margin of one (op, N, die, distance) point.

    All voltages are in VDD units.  ``net_margin`` is the deterministic
    worst-case differential after every adverse systematic effect
    (design-induced margin shift, sense-amp offset mean, common-mode
    resolution bias); a non-positive value means the boundary input
    pattern on ``worst_case`` resolves *wrongly* more often than not —
    the charge algebra makes the configuration infeasible before any
    trial runs (Observation 14).  ``noise_sigma`` is the effective
    per-trial noise (common-mode inflation and static offset spread in
    quadrature) at the worst-case operating point.
    """

    op: str
    n_inputs: int
    compute_region: int
    reference_region: int
    v_reference: float
    raw_margin: float
    net_margin: float
    noise_sigma: float
    worst_case: str

    @property
    def feasible(self) -> bool:
        return self.net_margin > 0.0

    def describe(self) -> str:
        verdict = "feasible" if self.feasible else "INFEASIBLE"
        return (
            f"{self.op.upper():4s} N={self.n_inputs:<2d} "
            f"regions C{self.compute_region}/R{self.reference_region}: "
            f"V_ref={self.v_reference:.3f} raw={self.raw_margin:+.4f} "
            f"net={self.net_margin:+.4f} sigma={self.noise_sigma:.4f} "
            f"[{verdict}: worst case {self.worst_case}]"
        )


def worst_case_sense_margin(
    op: str,
    n_inputs: int,
    calibration: object,
    compute_region: int = 1,
    reference_region: int = 1,
) -> SenseMarginBound:
    """Conservative static bound on the sense margin of a logic op.

    Evaluates the two boundary input patterns of an ``N``-input AND/OR
    family operation (all-ones vs. one-zero for AND; all-zeros vs.
    one-one for OR) through the finite-capacitance charge-sharing model
    and the systematic terms of :func:`sense_differential`, taking every
    systematic effect in its *adverse* direction and crediting none of
    the helpful ones:

    * the design-induced margin shift ``op_distance_margin[compute]
      [reference]`` (it favors the compute side; only a compute-hurting
      sign is charged),
    * the sense-amp static offset mean (direction depends on which
      terminal the compute side lands on, so ``|sa_offset_mean|`` is
      always charged), and
    * the common-mode resolution bias (overdrive loss near VDD favors
      logic-1, underdrive near GND favors logic-0 — whichever boundary
      pattern the bias pushes across the threshold is charged).

    ``calibration`` is a :class:`repro.dram.calibration.DieCalibration`
    (typed as ``object`` to keep this module free of upward imports);
    regions are Close/Middle/Far as 0/1/2 (``repro.dram.variation.Region``
    values work directly).  NAND/NOR share their comparison with AND/OR —
    the complement is read from the other terminal — so they bound
    identically.
    """
    families = {"and": "and", "nand": "and", "or": "or", "nor": "or"}
    if op not in families:
        raise ValueError(f"unknown operation {op!r}; expected one of {sorted(families)}")
    if n_inputs < 2:
        raise ValueError(f"logic operations need n_inputs >= 2, got {n_inputs}")
    if not (0 <= compute_region <= 2 and 0 <= reference_region <= 2):
        raise ValueError("regions must be 0 (Close), 1 (Middle), or 2 (Far)")
    base = families[op]

    cell_ff = float(getattr(calibration, "cell_cap_ff"))
    bitline_ff = float(getattr(calibration, "bitline_cap_ff"))

    def shared(voltages: Sequence[float]) -> float:
        cells = np.asarray(voltages, dtype=np.float64)[:, np.newaxis]
        return float(charge_share(cells, cell_ff, bitline_ff)[0])

    constant = VDD if base == "and" else 0.0
    v_reference = shared([constant] * (n_inputs - 1) + [VDD_HALF])
    if base == "and":
        v_high = shared([VDD] * n_inputs)
        v_low = shared([VDD] * (n_inputs - 1) + [0.0])
        high_label = f"all {n_inputs} inputs at 1"
        low_label = f"{n_inputs - 1} of {n_inputs} inputs at 1"
    else:
        v_high = shared([VDD] + [0.0] * (n_inputs - 1))
        v_low = shared([0.0] * n_inputs)
        high_label = f"1 of {n_inputs} inputs at 1"
        low_label = f"all {n_inputs} inputs at 0"

    shift = float(
        getattr(calibration, "op_distance_margin")[compute_region][reference_region]
    )
    gain_scale = float(
        getattr(calibration, "op_distance_cm_gain_scale")[compute_region][
            reference_region
        ]
    )
    offset_mean = abs(float(getattr(calibration, "sa_offset_mean")))
    offset_sigma = float(getattr(calibration, "sa_offset_sigma"))
    noise = float(getattr(calibration, "sense_noise_sigma"))
    cm_gain = float(getattr(calibration, "common_mode_noise_gain")) * gain_scale
    cm_threshold = float(getattr(calibration, "common_mode_threshold"))
    cm_cap = float(getattr(calibration, "common_mode_sigma_cap")) * gain_scale
    bias_hi_gain = float(getattr(calibration, "common_mode_offset_gain"))
    bias_lo_gain = float(getattr(calibration, "low_common_mode_offset_gain"))

    def case(v_compute: float, want_compute_win: bool, label: str):
        raw = abs(v_compute - v_reference)
        common_mode = 0.5 * (v_compute + v_reference)
        overdrive = max(0.0, common_mode - cm_threshold)
        underdrive = max(0.0, cm_threshold - common_mode)
        # Resolution bias toward the compute terminal [VDD]; only the
        # adverse sign for this boundary pattern is charged.
        bias = bias_hi_gain * overdrive - bias_lo_gain * underdrive
        adverse = offset_mean
        adverse += max(0.0, -shift) if want_compute_win else max(0.0, shift)
        adverse += max(0.0, -bias) if want_compute_win else max(0.0, bias)
        sigma = noise * (1.0 + cm_gain * overdrive)
        if cm_cap > 0.0:
            sigma = min(sigma, cm_cap * noise)
        sigma = float(np.hypot(sigma, offset_sigma))
        return raw - adverse, raw, sigma, label

    cases = (
        case(v_high, True, high_label),
        case(v_low, False, low_label),
    )
    worst = min(cases, key=lambda c: c[0])
    return SenseMarginBound(
        op=op,
        n_inputs=n_inputs,
        compute_region=int(compute_region),
        reference_region=int(reference_region),
        v_reference=v_reference,
        raw_margin=min(c[1] for c in cases),
        net_margin=worst[0],
        noise_sigma=max(c[2] for c in cases),
        worst_case=worst[3],
    )


def sense_differential(
    v_positive: np.ndarray,
    v_negative: np.ndarray,
    offsets: np.ndarray,
    noise_sigma: float,
    rng: Union[np.random.Generator, Iterable[np.random.Generator]],
    common_mode_gain: float = 0.0,
    common_mode_threshold: float = 0.0,
    sigma_cap_factor: float = 0.0,
    common_mode_offset_gain: float = 0.0,
    low_common_mode_offset_gain: float = 0.0,
    coupling_sigma: float = 0.0,
    margin_shift: float = 0.0,
) -> np.ndarray:
    """Resolve a sense amplifier comparison per column.

    Returns a boolean array: ``True`` where the positive terminal wins
    (it will be driven to VDD, the negative terminal to GND).

    ``rng`` is either a single :class:`numpy.random.Generator` or, for
    batched evaluation over a leading trials axis, a sequence of
    per-trial generators (one per row of the 2-D terminal arrays).  In
    the batched form trial ``i``'s noise is drawn from ``rng[i]`` with
    the same shape and in the same order as a one-trial call, so a block
    and its trials run one at a time consume identical numbers from
    identical streams.

    The effective comparison is ``v_positive - v_negative + margin_shift
    + offsets + noise > 0`` with the per-trial noise standard deviation
    inflated once the common-mode voltage exceeds
    ``common_mode_threshold`` — the cross-coupled pull-up pair loses gate
    overdrive when both terminals sit near VDD, so high-voltage
    comparisons (the AND-family worst cases) are less reliable than
    low-voltage ones (Observations 12/14) — and by parasitic coupling
    from adjacent-bitline disagreement (Observation 16).
    """
    v_positive = np.asarray(v_positive, dtype=np.float64)
    v_negative = np.asarray(v_negative, dtype=np.float64)
    if v_positive.shape != v_negative.shape:
        raise ValueError("terminal voltage arrays must have matching shapes")
    if noise_sigma < 0 or coupling_sigma < 0:
        raise ValueError("noise magnitudes must be non-negative")

    common_mode = np.clip(0.5 * (v_positive + v_negative), 0.0, VDD)
    overdrive_loss = np.maximum(0.0, common_mode - common_mode_threshold)
    sigma = noise_sigma * (1.0 + common_mode_gain * overdrive_loss)
    if sigma_cap_factor > 0.0:
        # The overdrive loss saturates: beyond a few nominal sigmas the
        # amplifier still resolves large differentials correctly.
        sigma = np.minimum(sigma, sigma_cap_factor * noise_sigma)
    if coupling_sigma > 0.0:
        disturbance = coupling_disturbance(v_positive - v_negative)
        sigma = np.sqrt(sigma**2 + (coupling_sigma * disturbance) ** 2)

    # The pull-down pair keeps full overdrive while the pull-ups lose
    # theirs, so a high common mode also *biases* the resolution: the
    # stronger NMOS on the (momentarily) lower terminal yanks it down
    # first, favoring a logic-1 on the positive terminal.  This is what
    # makes the near-VDD worst cases (15 of 16 inputs at logic-1,
    # Observation 14) resolve wrongly more than half the time.
    # Symmetrically, a very low common mode starves the pull-downs and
    # the pull-ups favor a logic-0 on the positive terminal — the OR
    # worst cases (one of 16 inputs at logic-1, Observation 14).
    underdrive_loss = np.maximum(0.0, common_mode_threshold - common_mode)
    bias = (
        common_mode_offset_gain * overdrive_loss
        - low_common_mode_offset_gain * underdrive_loss
    )
    if isinstance(rng, np.random.Generator):
        noise = rng.standard_normal(v_positive.shape) * sigma
    else:
        generators = list(rng)
        if v_positive.ndim < 2 or len(generators) != v_positive.shape[0]:
            raise ValueError(
                "per-trial generators require 2-D terminals with one "
                "generator per leading row"
            )
        noise = (
            np.stack([g.standard_normal(v_positive.shape[1:]) for g in generators])
            * sigma
        )
    return (v_positive - v_negative + margin_shift + offsets + bias + noise) > 0.0
