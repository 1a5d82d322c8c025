"""Stability analysis of DCTCP and DT-DCTCP (paper Section V).

Implements Theorem 1 (DCTCP) and Theorem 2 (DT-DCTCP) plus the
quantities the paper's Figure 9 and Section V-D compare:

* the **sufficient stability condition** — the plant locus stays to the
  right of the DF locus's rightmost point (``max(-1/N0)``);
* the **stability margin** — minimum Nyquist-plane distance between the
  plant locus and the DF locus (0 means a predicted limit cycle);
* the **limit-cycle prediction** — amplitude ``X`` and frequency ``w``
  solving the characteristic equation;
* the **critical flow count** — smallest N at which the margin closes;
* a **gain-scale calibration** reproducing Figure 9's onset.

On calibration: evaluating the paper's Eq. (13)-(18) literally with its
stated parameters (C = 10 Gbps of 1.5 KB packets, R0 = 100 us, K = 40,
g = 1/16) puts the plant locus's deepest negative-real-axis excursion at
about 0.58 — it never reaches ``max(-1/N0dc) = -pi``, so the
characteristic equation would have *no* solution at any N, while the
paper's Figure 9 reports a DCTCP intersection at N = 60.  The paper does
not state the gain convention behind its figure, so this module exposes a
``loop_gain_scale`` knob, and :func:`calibrate_gain_scale` picks the
single scalar that makes DCTCP's locus first touch the DF locus at a
chosen N (Figure 9a's onset).  With that one number fixed, everything
else is parameter-free — and the paper's qualitative conclusion is
reproduced: the same scale leaves DT-DCTCP's margin strictly positive
(larger at every N), i.e. DT-DCTCP is the more stable loop.  Notably the
*shape* in N needs no calibration at all: the uncalibrated excursion
peaks near N ~ 55, exactly where the paper finds the onset of
oscillation.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.describing_function import (
    max_neg_inv_relative_df_single,
    max_real_neg_inv_relative_df_double,
)
from repro.core.nyquist import (
    LocusIntersection,
    MarkingParams,
    PhaseCrossover,
    df_locus,
    find_intersections,
    min_curve_distance,
    plant_locus,
    principal_phase_crossover,
)
from repro.core.parameters import (
    DoubleThresholdParams,
    NetworkParams,
    SingleThresholdParams,
)

__all__ = [
    "StabilityReport",
    "analyze",
    "sufficient_condition_holds",
    "stability_margin",
    "predicted_limit_cycle",
    "critical_flow_count",
    "calibrate_gain_scale",
    "margin_sweep",
]


@dataclasses.dataclass(frozen=True)
class StabilityReport:
    """Everything Theorem 1/2 says about one (network, marking) pair."""

    net: NetworkParams
    params: MarkingParams
    loop_gain_scale: float
    #: True if the sufficient condition of Theorem 1/2 holds (no part of
    #: the plant locus reaches the rightmost point of the DF locus).
    sufficient_condition: bool
    #: Minimum distance between the plant and DF loci; 0 => limit cycle.
    margin: float
    #: The plant locus's largest-magnitude negative-real-axis crossing.
    crossover: Optional[PhaseCrossover]
    #: Solutions of the characteristic equation (possibly empty).
    intersections: List[LocusIntersection]

    @property
    def oscillation_predicted(self) -> bool:
        """True when the DF method predicts a self-oscillation."""
        return len(self.intersections) > 0

    @property
    def predicted_amplitude(self) -> Optional[float]:
        """Amplitude of the stable limit cycle, if one is predicted.

        When two intersections exist, the larger-amplitude one is the
        stable (observable) limit cycle per Figure 4's argument.
        """
        if not self.intersections:
            return None
        stable = [i for i in self.intersections if i.stable_limit_cycle]
        chosen = stable[-1] if stable else self.intersections[-1]
        return chosen.amplitude

    @property
    def predicted_frequency(self) -> Optional[float]:
        if not self.intersections:
            return None
        stable = [i for i in self.intersections if i.stable_limit_cycle]
        chosen = stable[-1] if stable else self.intersections[-1]
        return chosen.frequency


def _df_rightmost_real(params: MarkingParams) -> float:
    """``max`` over the DF locus of the real part (Theorem 1/2 landmark)."""
    if isinstance(params, SingleThresholdParams):
        return max_neg_inv_relative_df_single(params.k)
    return max_real_neg_inv_relative_df_double(params.k1, params.k2).real


def sufficient_condition_holds(
    net: NetworkParams, params: MarkingParams, loop_gain_scale: float = 1.0
) -> bool:
    """Theorem 1/2's sufficient stability condition.

    The DF locus of both mechanisms lives in the closed left half plane
    with its rightmost point on (DCTCP) or nearest (DT-DCTCP) the real
    axis; if every negative-real-axis crossing of ``K0 G(jw)`` has real
    part greater than that rightmost real part, the plant locus cannot
    surround or touch the DF locus and the loop is stable.
    """
    crossover = principal_phase_crossover(net, params, loop_gain_scale)
    if crossover is None:
        return True
    return crossover.value.real > _df_rightmost_real(params)


def stability_margin(
    net: NetworkParams, params: MarkingParams, loop_gain_scale: float = 1.0
) -> float:
    """Minimum Nyquist-plane distance between plant and DF loci.

    A continuous refinement of the binary theorem: the margin shrinks as
    the loop approaches self-oscillation and reaches zero exactly when
    the characteristic equation gains a solution.  The coarse grid
    minimum is polished with Nelder-Mead in (log w, log X).
    """
    w_grid, plant_vals = plant_locus(net, params, loop_gain_scale=loop_gain_scale)
    x_grid, df_vals = df_locus(params)
    coarse, i, j = min_curve_distance(plant_vals, df_vals)

    # scipy stays off the simulator's import path (see nyquist.py).
    from scipy import optimize

    from repro.core.nyquist import _neg_inv_relative_df
    from repro.core.transfer_function import open_loop

    gain = params.characteristic_gain * loop_gain_scale
    neg_inv = _neg_inv_relative_df(params)
    if isinstance(params, SingleThresholdParams):
        x_min = params.k * (1.0 + 1e-12)
    else:
        x_min = params.k2 * (1.0 + 1e-12)

    def objective(vars_: np.ndarray) -> float:
        w = math.exp(vars_[0])
        x = max(math.exp(vars_[1]), x_min)
        return abs(gain * complex(open_loop(w, net)) - neg_inv(x))

    res = optimize.minimize(
        objective,
        np.array([math.log(w_grid[i]), math.log(max(x_grid[j], x_min))]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
    )
    return float(min(coarse, res.fun))


def predicted_limit_cycle(
    net: NetworkParams,
    params: MarkingParams,
    loop_gain_scale: float = 1.0,
    margin_tol: float = 1e-3,
) -> Optional[LocusIntersection]:
    """The stable limit cycle predicted by the DF method, or None.

    Returns the larger-amplitude intersection when two exist (the stable
    one per the Figure 4 perturbation argument).
    """
    intersections = find_intersections(
        net, params, loop_gain_scale=loop_gain_scale, residual_tol=margin_tol
    )
    if not intersections:
        return None
    stable = [i for i in intersections if i.stable_limit_cycle]
    return stable[-1] if stable else intersections[-1]


def analyze(
    net: NetworkParams, params: MarkingParams, loop_gain_scale: float = 1.0
) -> StabilityReport:
    """Full Theorem 1/2 work-up for one configuration."""
    return StabilityReport(
        net=net,
        params=params,
        loop_gain_scale=loop_gain_scale,
        sufficient_condition=sufficient_condition_holds(net, params, loop_gain_scale),
        margin=stability_margin(net, params, loop_gain_scale),
        crossover=principal_phase_crossover(net, params, loop_gain_scale),
        intersections=find_intersections(
            net, params, loop_gain_scale=loop_gain_scale, residual_tol=1e-4
        ),
    )


def margin_sweep(
    base_net: NetworkParams,
    params: MarkingParams,
    flow_counts: Sequence[int],
    loop_gain_scale: float = 1.0,
) -> List[float]:
    """Stability margin at each flow count (Figure 9's N sweep)."""
    return [
        stability_margin(base_net.with_flows(n), params, loop_gain_scale)
        for n in flow_counts
    ]


def critical_flow_count(
    base_net: NetworkParams,
    params: MarkingParams,
    flow_counts: Sequence[int],
    loop_gain_scale: float = 1.0,
    margin_tol: float = 1e-3,
) -> Optional[int]:
    """Smallest N in ``flow_counts`` whose margin closes (oscillation onset).

    Returns None if the loop keeps a positive margin throughout — the
    DT-DCTCP outcome under the calibrated paper configuration.
    """
    for n in sorted(flow_counts):
        margin = stability_margin(base_net.with_flows(n), params, loop_gain_scale)
        if margin <= margin_tol:
            return n
    return None


def calibrate_gain_scale(
    base_net: NetworkParams,
    params: Union[SingleThresholdParams, DoubleThresholdParams],
    onset_flows: int = 60,
) -> float:
    """Gain scale at which the locus first touches the DF locus at ``onset_flows``.

    Reproduces Figure 9's convention: returns the scalar ``kappa`` such
    that the plant locus's principal phase crossover at N = onset_flows
    lands exactly on the rightmost point of the DF locus.  For DCTCP that
    point is ``-pi`` (independent of K), so ``kappa = pi / |K0 G(j
    w180)|``.
    """
    net = base_net.with_flows(onset_flows)
    crossover = principal_phase_crossover(net, params)
    if crossover is None:
        raise ValueError(
            "plant locus has no negative-real-axis crossing; cannot calibrate"
        )
    target = abs(_df_rightmost_real(params))
    return target / crossover.magnitude
