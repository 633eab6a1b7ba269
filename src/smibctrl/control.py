"""Pole-placement feedback-linearizing excitation controller.

The loop inverts the identified affine one-step model each sampling
instant: u = (-f_hat + u_tilde)/g_hat, with u_tilde a pole-placement
feedback over past outputs, an optional rotor-speed damping term added to
the field voltage, and deadzone-gated online adaptation of the model
weights from the one-step prediction error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .networks import (Mlp, N_LAGS_U, N_LAGS_Y, mlp_forward, theta_flatten, theta_unflatten,
                       weight_jacobian)


# With every pole strictly inside the unit circle the coefficients satisfy
# sum |C_k| < 2^p, which stays finite in double precision up to p = 1023.
MAX_ORDER = 1023

PSS_BASE_GAIN = 0.7091   # pu field voltage per pu slip, scaled by the config's nu


@dataclass(frozen=True)
class PolePlacement:
    """Monic target polynomial z^p + C_{p-1} z^{p-1} + ... + C_0 and the
    reference gain k1 giving unity DC gain; built by synthesize_poly."""

    coeffs: tuple          # (C_0, ..., C_{p-1})
    k1: float

    def __post_init__(self):  # (C_{p-1}, ..., C_0), the array u_tilde dots with
        object.__setattr__(self, "_c_desc", np.array(self.coeffs[::-1], dtype=float))

    @property
    def p(self) -> int:
        return len(self.coeffs)


def synthesize_poly(poles) -> PolePlacement:
    """Expand a conjugate-closed set of stable poles into a PolePlacement."""
    poles = [complex(z) for z in poles]
    for z in poles:
        if abs(z) >= 1.0:
            raise ValueError(f"pole {z} is not strictly inside the unit circle")
    for z in poles:
        if abs(z.imag) > 0 and not any(abs(w - z.conjugate()) < 1e-12 for w in poles):
            raise ValueError("pole set is not closed under conjugation")
    # np.poly's rounding moves the coefficients by at most 2 p eps prod(1 + |z_i|)
    # in total, while |Q(z)| >= prod(1 - |z_i|) on the unit circle.  With the first
    # under 1% of the second the stored polynomial keeps every root inside the
    # circle (Rouché), and k1, which adds the rounding of evaluating it at 1, is
    # within 2% of the exact (1 - z_1)...(1 - z_p).
    rounding = 2 * len(poles) * np.finfo(float).eps * math.prod(1.0 + abs(z) for z in poles)
    if not rounding <= 1e-2 * math.prod(1.0 - abs(z) for z in poles):
        raise ValueError("target polynomial is too ill-conditioned for double precision")
    monic = np.atleast_1d(np.poly(poles))
    if np.max(np.abs(monic.imag)) > 1e-10:
        raise ValueError("pole set is not closed under conjugation")
    monic = monic.real
    coeffs = tuple(monic[1:][::-1])  # ascending C_0..C_{p-1}
    k1 = float(np.polyval(monic, 1.0))
    return PolePlacement(coeffs=coeffs, k1=k1)


def u_tilde(r: float, y_hist, placement: PolePlacement) -> float:
    """Pole-placement outer loop: k1 r - [C_{p-1} y(k) + ... + C_0 y(k-p+1)].

    y_hist is newest first and must hold at least p values.
    """
    if len(y_hist) < placement.p:
        raise ValueError(f"need {placement.p} past outputs, have {len(y_hist)}")
    return float(placement.k1 * r - placement._c_desc @ np.asarray(y_hist[:placement.p], float))


def linearizing_control(f_hat: float, g_hat: float, u_til: float, g_min: float) -> float:
    """Model inversion with a sign-preserving floor g_min > 0 on the input gain."""
    if abs(g_hat) >= g_min:
        g_safe = g_hat
    else:
        g_safe = g_min if g_hat >= 0.0 else -g_min
    return (-f_hat + u_til) / g_safe


class NeuralPlantModel:
    """Adaptable two-network model exposing f(z), g(z) and the weight Jacobian.

    theta is the model's own copy of the weights, and f_net and g_net are
    views of it.  Adaptation never writes it: adapted(theta) returns a new
    model.
    """

    def __init__(self, f_net: Mlp, g_net: Mlp):
        self.theta = theta_flatten(f_net, g_net)
        # unequal hidden sizes fail here
        self.f_net, self.g_net = theta_unflatten(self.theta, f_net.n_hidden)

    def f(self, z) -> float:
        return mlp_forward(self.f_net, z)

    def g(self, z) -> float:
        return mlp_forward(self.g_net, z)

    def jacobian(self, z, u: float) -> np.ndarray:
        return weight_jacobian(self.f_net, self.g_net, z, u)

    def adapted(self, theta) -> "NeuralPlantModel":
        """A new model of the same shape that takes over the weights theta,
        which the caller must not write afterwards."""
        model = object.__new__(NeuralPlantModel)
        model.theta = np.asarray(theta, dtype=float)
        model.f_net, model.g_net = theta_unflatten(model.theta, self.f_net.n_hidden)
        return model


class ControllerState(NamedTuple):
    """One adaptive loop at one instant, as an immutable value: its fixed
    constants, the model and the histories.

    The constants are the pole-placement target, the damping gain k_pss on
    the per-unit slip, the deadzone radius d0 and the floor g_min on
    |g_hat|.  Only a prediction error beyond d0 adapts the weights, so
    d0 = math.inf freezes them.  Histories are newest-first float tuples;
    at_equilibrium seeds them and sets the floor.  No adaptation happens
    on the first step since no prediction exists yet.
    """

    model: object
    placement: PolePlacement
    k_pss: float
    d0: float
    g_min: float
    y_hist: tuple
    u_hist: tuple
    last_prediction: float | None = None
    last_regressor: np.ndarray | None = None
    last_e_star: float = 0.0
    last_adapted: bool = False

    @classmethod
    def at_equilibrium(cls, model, y_eq: float, *, placement: PolePlacement, nu: float,
                       d0: float):
        """Histories at the output y_eq and zero input perturbation; the
        damping gain is nu * PSS_BASE_GAIN and the floor g_min a tenth of
        |g_hat| at that operating point, which must be finite."""
        if not d0 >= 0.0:
            raise ValueError("deadzone radius must be non-negative")
        y_hist = (float(y_eq),) * max(placement.p, N_LAGS_Y)
        u_hist = (0.0,) * N_LAGS_U
        g_eq = model.g(np.array(y_hist[:N_LAGS_Y] + u_hist))
        if not math.isfinite(g_eq):
            raise FloatingPointError(f"g_hat = {g_eq} at the operating point is not finite")
        return cls(model, placement, nu * PSS_BASE_GAIN, d0, max(0.1 * abs(g_eq), 1e-9),
                   y_hist, u_hist)


def control_step(ctrl: ControllerState, r: float, y_meas: float, slip: float):
    """One sampling instant of the adaptive loop, a pure function of its
    arguments.

    Adapts the model from the previous instant's prediction error, then
    forms the regressor z = [y(k)..y(k-6), u(k-1)..u(k-6)], inverts the
    model through the pole-placement outer loop, adds the damping term
    k_pss * slip (slip is the per-unit rotor slip omega/omega_b) and
    records the prediction and its regressor for the next instant.
    Returns (u, next state); ctrl and its model are left unchanged.
    """
    model, placement, k_pss, d0, g_min, y_hist, u_hist, prediction, z_prev, _, _ = ctrl
    e_star, adapted = 0.0, False
    if prediction is not None:
        e_star = float(prediction - y_meas)
        if abs(e_star) > d0:
            # Normalized-gradient step on the error shrunk toward zero by d0.
            # theta has not moved since the prediction, and u(k-1) is u_hist[0].
            jac = model.jacobian(z_prev, u_hist[0])
            step = (e_star - math.copysign(d0, e_star)) / (1.0 + float(jac @ jac))
            model = model.adapted(model.theta - step * jac)
            adapted = True

    y_hist = (float(y_meas),) + y_hist[:-1]
    z = np.array(y_hist[:N_LAGS_Y] + u_hist)
    f_hat = model.f(z)
    g_hat = model.g(z)
    if not math.isfinite(g_hat):  # the floor would pick its sign from a NaN
        raise FloatingPointError(f"g_hat = {g_hat} is not finite")
    u_til = u_tilde(r, y_hist, placement)
    u = float(linearizing_control(f_hat, g_hat, u_til, g_min) + k_pss * slip)
    if not math.isfinite(u):
        raise FloatingPointError("control input is not finite")
    return u, ControllerState(model, placement, k_pss, d0, g_min, y_hist,
                              (u,) + u_hist[:-1], f_hat + g_hat * u, z, e_star, adapted)
