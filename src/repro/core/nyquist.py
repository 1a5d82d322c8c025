"""Nyquist-plane machinery for the describing-function criterion.

The stability story of Section IV-B plays out on the complex plane: the
plant locus ``K0 G(jw)`` (frequency-parametrised) and the DF locus
``-1/N0(X)`` (amplitude-parametrised) are two curves; an intersection is
a candidate limit cycle and its ``(X, w)`` solve the characteristic
equation ``K0 G(jw) = -1/N0(X)`` (Eq. 9/19/24).

This module computes the loci, the real-axis (phase-crossover) points,
the minimum distance between the two curves (a continuous *stability
margin*: zero means a predicted self-oscillation), exact intersections by
root finding, and winding numbers for the textbook encirclement test of
Figure 4.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.describing_function import (
    neg_inv_relative_df_double,
    neg_inv_relative_df_single,
)
from repro.core.parameters import (
    DoubleThresholdParams,
    NetworkParams,
    SingleThresholdParams,
)
from repro.core.transfer_function import open_loop

__all__ = [
    "PhaseCrossover",
    "default_frequency_grid",
    "default_amplitude_grid",
    "plant_locus",
    "df_locus",
    "phase_crossovers",
    "principal_phase_crossover",
    "min_curve_distance",
    "LocusIntersection",
    "find_intersections",
    "winding_number",
]

MarkingParams = Union[SingleThresholdParams, DoubleThresholdParams]


@dataclasses.dataclass(frozen=True)
class PhaseCrossover:
    """A point where the plant locus crosses the negative real axis."""

    frequency: float  #: angular frequency w (rad/s)
    value: complex  #: locus value there (imaginary part ~ 0, real part < 0)

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def default_frequency_grid(
    net: NetworkParams, n_points: int = 4000, decades_below: float = 1.5,
    decades_above: float = 2.0,
) -> np.ndarray:
    """Log-spaced angular frequencies bracketing the plant's dynamics.

    Centred on ``1/R0`` — the fastest plant pole and the scale of the
    feedback delay — which is where the phase crossover lives.
    """
    center = 1.0 / net.rtt
    return np.geomspace(
        center / 10**decades_below, center * 10**decades_above, n_points
    )


def default_amplitude_grid(
    params: MarkingParams, n_points: int = 2000, max_ratio: float = 50.0
) -> np.ndarray:
    """Log-spaced oscillation amplitudes for the DF locus.

    Starts just above the DF's domain edge (``K`` or ``K2``) where
    ``-1/N0`` diverges, and extends to ``max_ratio`` times it.
    """
    if isinstance(params, SingleThresholdParams):
        edge = params.k
    else:
        edge = params.k2
    return edge * np.geomspace(1.0 + 1e-6, max_ratio, n_points)


def plant_locus(
    net: NetworkParams,
    params: MarkingParams,
    w: Optional[np.ndarray] = None,
    loop_gain_scale: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(w, K0 * scale * G(jw))`` samples of the plant locus."""
    if w is None:
        w = default_frequency_grid(net)
    values = params.characteristic_gain * loop_gain_scale * open_loop(w, net)
    return w, np.asarray(values)


def df_locus(
    params: MarkingParams, amplitudes: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(X, -1/N0(X))`` samples of the describing-function locus."""
    if amplitudes is None:
        amplitudes = default_amplitude_grid(params)
    if isinstance(params, SingleThresholdParams):
        values = np.array(
            [neg_inv_relative_df_single(float(x), params.k) for x in amplitudes]
        )
    else:
        values = np.array(
            [
                neg_inv_relative_df_double(float(x), params.k1, params.k2)
                for x in amplitudes
            ]
        )
    return amplitudes, values


def _neg_inv_relative_df(params: MarkingParams) -> Callable[[float], complex]:
    if isinstance(params, SingleThresholdParams):
        return lambda x: neg_inv_relative_df_single(x, params.k)
    return lambda x: neg_inv_relative_df_double(x, params.k1, params.k2)


def phase_crossovers(
    net: NetworkParams,
    params: MarkingParams,
    w: Optional[np.ndarray] = None,
    loop_gain_scale: float = 1.0,
) -> List[PhaseCrossover]:
    """All negative-real-axis crossings of the scaled plant locus.

    Found by bracketing sign changes of the imaginary part on the grid
    and refining each with Brent's method.  The feedback delay makes the
    phase wind indefinitely, so there are infinitely many crossings at
    ever-smaller magnitude; only those within the grid are returned,
    sorted by frequency.
    """
    # scipy is imported on first use so the packet simulator, which
    # reaches this package only for its markers, never loads it.
    from scipy import optimize

    if w is None:
        w = default_frequency_grid(net, n_points=20000)
    gain = params.characteristic_gain * loop_gain_scale

    def locus_at(freq: float) -> complex:
        return gain * complex(open_loop(freq, net))

    values = gain * open_loop(w, net)
    imag = values.imag
    crossings: List[PhaseCrossover] = []
    sign_change = np.where(np.diff(np.signbit(imag)))[0]
    for i in sign_change:
        try:
            w_star = optimize.brentq(
                lambda freq: locus_at(freq).imag, w[i], w[i + 1], xtol=1e-6
            )
        except ValueError:
            continue
        val = locus_at(w_star)
        if val.real < 0.0:
            crossings.append(PhaseCrossover(frequency=float(w_star), value=val))
    return crossings


def principal_phase_crossover(
    net: NetworkParams,
    params: MarkingParams,
    loop_gain_scale: float = 1.0,
) -> Optional[PhaseCrossover]:
    """The largest-magnitude negative-real-axis crossing.

    This is the point that first reaches the DF locus as the loop gain
    grows, so Theorem 1's sufficient condition reduces to comparing its
    real part against ``max(-1/N0)``.
    """
    crossings = phase_crossovers(net, params, loop_gain_scale=loop_gain_scale)
    if not crossings:
        return None
    return max(crossings, key=lambda c: c.magnitude)


def min_curve_distance(
    a: np.ndarray, b: np.ndarray
) -> Tuple[float, int, int]:
    """Minimum pointwise distance between two sampled complex curves.

    Returns ``(distance, index_a, index_b)``.  O(len(a) * len(b)) but
    evaluated blockwise in numpy; fine for the grid sizes used here.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("min_curve_distance requires non-empty curves")
    best = math.inf
    best_i = best_j = 0
    block = 512
    for start in range(0, len(a), block):
        chunk = a[start : start + block]
        d = np.abs(chunk[:, None] - b[None, :])
        idx = np.unravel_index(np.argmin(d), d.shape)
        if d[idx] < best:
            best = float(d[idx])
            best_i = start + int(idx[0])
            best_j = int(idx[1])
    return best, best_i, best_j


@dataclasses.dataclass(frozen=True)
class LocusIntersection:
    """A solution of the characteristic equation ``K0 G(jw) = -1/N0(X)``."""

    amplitude: float  #: predicted queue-oscillation amplitude X (packets)
    frequency: float  #: predicted oscillation angular frequency w (rad/s)
    residual: float  #: |K0 G(jw) + 1/N0(X)| at the solution
    stable_limit_cycle: Optional[bool] = None  #: per Figure 4's perturbation test

    @property
    def period(self) -> float:
        """Oscillation period in seconds."""
        return 2.0 * math.pi / self.frequency


def find_intersections(
    net: NetworkParams,
    params: MarkingParams,
    loop_gain_scale: float = 1.0,
    residual_tol: float = 1e-6,
) -> List[LocusIntersection]:
    """Solve the characteristic equation by 2-D root finding.

    Seeds come from near-contact points of the sampled curves; each seed
    is polished with a hybrid Powell solve of the two real equations
    Re/Im of ``K0 * scale * G(jw) + 1/N0(X) = 0`` in (log w, log X).
    Duplicate roots are merged.  An empty list means the DF method
    predicts no limit cycle.
    """
    from scipy import optimize

    w_grid, plant_vals = plant_locus(net, params, loop_gain_scale=loop_gain_scale)
    x_grid, df_vals = df_locus(params)
    neg_inv = _neg_inv_relative_df(params)
    gain = params.characteristic_gain * loop_gain_scale
    if isinstance(params, SingleThresholdParams):
        x_min = params.k * (1.0 + 1e-9)
    else:
        x_min = params.k2 * (1.0 + 1e-9)

    def equations(vars_: np.ndarray) -> np.ndarray:
        # Clamp the log-space variables: fsolve may probe wild values
        # while it searches, and exp() must not overflow.
        log_w = min(max(vars_[0], -40.0), 40.0)
        log_x = min(max(vars_[1], -40.0), 40.0)
        w = math.exp(log_w)
        x = max(math.exp(log_x), x_min)
        val = gain * complex(open_loop(w, net)) - neg_inv(x)
        return np.array([val.real, val.imag])

    # Seed from the distance field.  When the curves never come close,
    # there is nothing to polish - the loop is comfortably stable.
    dist = np.abs(plant_vals[:, None] - df_vals[None, :])
    min_dist = float(dist.min())
    if min_dist > 0.2:
        return []
    threshold = min(0.2, max(0.02, min_dist * 3.0))
    candidate_idx = np.argwhere(dist <= threshold)
    # Thin the candidates so fsolve is not run thousands of times.
    seeds: List[Tuple[float, float]] = []
    seen: set = set()
    for i, j in candidate_idx:
        key = (int(i) // 50, int(j) // 25)
        if key in seen:
            continue
        seen.add(key)
        seeds.append((float(w_grid[i]), float(x_grid[j])))

    roots: List[LocusIntersection] = []
    for w0, x0 in seeds:
        sol, info, ier, _ = optimize.fsolve(
            equations,
            np.array([math.log(w0), math.log(x0)]),
            full_output=True,
            xtol=1e-12,
        )
        if ier != 1:
            continue
        w_star = math.exp(sol[0])
        x_star = math.exp(sol[1])
        residual = float(np.hypot(*equations(sol)))
        if residual > residual_tol or x_star < x_min or w_star <= 0:
            continue
        duplicate = any(
            abs(r.frequency - w_star) < 1e-3 * w_star
            and abs(r.amplitude - x_star) < 1e-3 * x_star
            for r in roots
        )
        if not duplicate:
            roots.append(
                LocusIntersection(
                    amplitude=x_star, frequency=w_star, residual=residual
                )
            )
    roots.sort(key=lambda r: r.amplitude)
    if len(roots) == 2:
        # Figure 4's perturbation argument for a convex real-axis DF locus:
        # the smaller-amplitude intersection (entering the plant locus) is
        # the unstable limit cycle, the larger-amplitude one is stable.
        roots = [
            dataclasses.replace(roots[0], stable_limit_cycle=False),
            dataclasses.replace(roots[1], stable_limit_cycle=True),
        ]
    return roots


def winding_number(curve: Sequence[complex], point: complex) -> int:
    """Winding number of a sampled closed curve around ``point``.

    Implements the encirclement count of the Nyquist criterion
    (Figure 4): the curve is treated as a closed polygon (last sample
    joined back to the first) and the total signed angle swept around
    ``point`` is accumulated.
    """
    pts = np.asarray(curve, dtype=complex) - point
    if np.any(np.abs(pts) == 0.0):
        raise ValueError("winding number undefined: curve passes through point")
    angles = np.angle(pts)
    closed = np.append(angles, angles[0])
    steps = np.diff(closed)
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    total = float(np.sum(steps))
    return int(round(total / (2.0 * math.pi)))
