"""Pole-placement feedback-linearizing excitation controller.

The loop inverts the identified affine one-step model each sampling
instant: u = (-f_hat + u_tilde)/g_hat, with u_tilde a pole-placement
feedback over past outputs, an optional rotor-speed damping term added to
the field voltage, and deadzone-gated online adaptation of the model
weights from the one-step prediction error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .networks import (Mlp, N_LAGS_U, N_LAGS_Y, make_regressor, mlp_forward,
                       theta_flatten, theta_unflatten, weight_jacobian)


@dataclass(frozen=True)
class PolePlacement:
    """Monic target polynomial z^p + C_{p-1} z^{p-1} + ... + C_0 and the
    reference gain k1 giving unity DC gain."""

    p: int
    coeffs: tuple          # (C_0, ..., C_{p-1})
    k1: float

    def __post_init__(self):
        if self.p < 0 or len(self.coeffs) != self.p:
            raise ValueError("order and coefficient count disagree")
        if self.p > 0:
            roots = np.roots(self.monic_descending())
            if np.max(np.abs(roots)) >= 1.0:
                raise ValueError("target polynomial has roots on or outside the unit circle")

    def monic_descending(self) -> np.ndarray:
        """[1, C_{p-1}, ..., C_0] for polynomial evaluation."""
        return np.concatenate(([1.0], self.coeffs[::-1]))

    def q_at(self, z: complex) -> complex:
        return np.polyval(self.monic_descending(), z)


def synthesize_poly(poles) -> PolePlacement:
    """Expand a conjugate-closed set of stable poles into a PolePlacement."""
    poles = [complex(z) for z in poles]
    for z in poles:
        if abs(z) >= 1.0:
            raise ValueError(f"pole {z} is not strictly inside the unit circle")
    remaining = list(poles)
    for z in poles:
        if abs(z.imag) > 0:
            matches = [w for w in remaining if abs(w - z.conjugate()) < 1e-12]
            if not matches:
                raise ValueError("pole set is not closed under conjugation")
    monic = np.atleast_1d(np.poly(poles))
    if np.max(np.abs(monic.imag)) > 1e-10:
        raise ValueError("pole set is not closed under conjugation")
    monic = monic.real
    coeffs = tuple(monic[1:][::-1])  # ascending C_0..C_{p-1}
    k1 = float(np.polyval(monic, 1.0))
    return PolePlacement(p=len(poles), coeffs=coeffs, k1=k1)


def u_tilde(r: float, y_hist, placement: PolePlacement) -> float:
    """Pole-placement outer loop: k1 r - [C_{p-1} y(k) + ... + C_0 y(k-p+1)].

    y_hist is newest first and must hold at least p values.
    """
    if placement.p == 0:
        return placement.k1 * r
    y_hist = np.asarray(y_hist, dtype=float)
    if len(y_hist) < placement.p:
        raise ValueError(f"need {placement.p} past outputs, have {len(y_hist)}")
    c_desc = np.asarray(placement.coeffs[::-1])
    return float(placement.k1 * r - c_desc @ y_hist[: placement.p])


def linearizing_control(f_hat: float, g_hat: float, u_til: float, g_min: float) -> float:
    """Model inversion with a sign-preserving floor on the input gain."""
    if not g_min > 0.0:
        raise ValueError("g_min must be positive")
    if abs(g_hat) >= g_min:
        g_safe = g_hat
    else:
        g_safe = g_min if g_hat >= 0.0 else -g_min
    return (-f_hat + u_til) / g_safe


@dataclass(frozen=True)
class PssConfig:
    """Rotor-speed damping term added to the field voltage."""

    base_gain: float = 0.7091   # pu field voltage per pu slip
    nu: float = 3.0

    @property
    def k_pss(self) -> float:
        return self.nu * self.base_gain


def pss_augment(u_lin: float, slip: float, cfg: PssConfig) -> float:
    """Add the damping term; slip is the per-unit rotor slip omega/omega_b."""
    return u_lin + cfg.k_pss * slip


@dataclass(frozen=True)
class DeadzoneConfig:
    d0: float = 0.01

    def __post_init__(self):
        if self.d0 < 0.0:
            raise ValueError("deadzone radius must be non-negative")


def deadzone(e: float, d0: float) -> float:
    """Shrink e toward zero by d0; exactly zero inside the band."""
    if d0 < 0.0:
        raise ValueError("deadzone radius must be non-negative")
    if e > d0:
        return e - d0
    if e < -d0:
        return e + d0
    return 0.0


def online_update(theta: np.ndarray, jac: np.ndarray, e_star: float, d0: float) -> np.ndarray:
    """Normalized-gradient weight update, gated by the deadzone.

    Returns theta unchanged (the same array) when |e_star| <= d0.
    """
    theta = np.asarray(theta, dtype=float)
    jac = np.asarray(jac, dtype=float)
    if theta.shape != jac.shape:
        raise ValueError("theta and jacobian shapes differ")
    if abs(e_star) <= d0:
        return theta
    return theta - (deadzone(e_star, d0) / (1.0 + float(jac @ jac))) * jac


class NeuralPlantModel:
    """Adaptable two-network model exposing f(z), g(z) and the weight Jacobian."""

    adaptable = True

    def __init__(self, f_net: Mlp, g_net: Mlp):
        self.f_net = f_net.copy()
        self.g_net = g_net.copy()

    def f(self, z) -> float:
        return mlp_forward(self.f_net, z)

    def g(self, z) -> float:
        return mlp_forward(self.g_net, z)

    def jacobian(self, z, u: float) -> np.ndarray:
        return weight_jacobian(self.f_net, self.g_net, z, u)

    @property
    def theta(self) -> np.ndarray:
        return theta_flatten(self.f_net, self.g_net)

    @theta.setter
    def theta(self, value):
        self.f_net, self.g_net = theta_unflatten(
            value, self.f_net.n_hidden, self.g_net.n_hidden, self.f_net.n_in
        )


class ExactPlantModel:
    """Oracle model wrapping closed-form f and g; not adaptable."""

    adaptable = False

    def __init__(self, f_fun, g_fun):
        self._f = f_fun
        self._g = g_fun

    def f(self, z) -> float:
        return float(self._f(np.asarray(z, dtype=float)))

    def g(self, z) -> float:
        return float(self._g(np.asarray(z, dtype=float)))


@dataclass
class ControllerState:
    """Per-loop mutable state: histories, the model and the adaptation gate.

    Histories are newest-first and must be seeded with equilibrium values
    before the first step.  No adaptation happens on the first step since
    no prediction exists yet.
    """

    model: object
    y_hist: np.ndarray
    u_hist: np.ndarray
    g_min: float
    adaptation_enabled: bool = True
    last_prediction: float | None = None
    last_regressor: np.ndarray | None = None
    last_e_star: float = 0.0
    last_adapted: bool = False

    def __post_init__(self):
        if not self.g_min > 0.0:
            raise ValueError("g_min must be positive")

    @classmethod
    def at_equilibrium(cls, model, y_eq: float, u_eq: float = 0.0, p: int = 7,
                       g_min: float = 1e-4, adaptation_enabled: bool = True):
        depth = max(p, N_LAGS_Y)
        return cls(
            model=model,
            y_hist=np.full(depth, float(y_eq)),
            u_hist=np.full(N_LAGS_U, float(u_eq)),
            g_min=g_min,
            adaptation_enabled=adaptation_enabled,
        )

    @property
    def theta(self):
        return self.model.theta

    def regressor(self) -> np.ndarray:
        return make_regressor(self.y_hist, self.u_hist)


def control_step(ctrl: ControllerState, r: float, y_meas: float, slip: float,
                 poles: PolePlacement, pss: PssConfig, dz: DeadzoneConfig):
    """One sampling instant of the adaptive loop.

    Adapts the model from the previous instant's prediction error, then
    forms the regressor, inverts the model through the pole-placement
    outer loop, augments with the damping term and records the prediction
    and its regressor for the next instant.  Returns (u, ctrl) with ctrl
    updated in place.
    """
    ctrl.last_adapted = False
    ctrl.last_e_star = 0.0
    if ctrl.last_prediction is not None:
        e_star = ctrl.last_prediction - y_meas
        ctrl.last_e_star = float(e_star)
        if ctrl.adaptation_enabled and ctrl.model.adaptable:
            if abs(e_star) > dz.d0:
                # theta has not moved since the prediction, and u(k-1) is u_hist[0]
                jac = ctrl.model.jacobian(ctrl.last_regressor, ctrl.u_hist[0])
                ctrl.model.theta = online_update(ctrl.model.theta, jac, e_star, dz.d0)
                ctrl.last_adapted = True

    ctrl.y_hist = np.concatenate(([y_meas], ctrl.y_hist[:-1]))
    z = ctrl.regressor()
    f_hat = ctrl.model.f(z)
    g_hat = ctrl.model.g(z)
    u_til = u_tilde(r, ctrl.y_hist, poles)
    u = pss_augment(linearizing_control(f_hat, g_hat, u_til, ctrl.g_min), slip, pss)
    if not math.isfinite(u):
        raise FloatingPointError("control input is not finite")

    ctrl.last_prediction = f_hat + g_hat * u
    ctrl.last_regressor = z
    ctrl.u_hist = np.concatenate(([u], ctrl.u_hist[:-1]))
    return u, ctrl
