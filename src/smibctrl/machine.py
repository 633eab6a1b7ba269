"""Seventh-order synchronous machine / infinite-bus plant.

Per-unit Park-frame model of a steam-turbine generator tied through a
transmission link to an infinite bus.  The state is one flat vector
x = [delta, omega, lam_d, lam_q, lam_f, lam_kd, lam_kq]: the power angle
(rad), its derivative (rad/s) and the five winding flux linkages (pu).
The control input is the field voltage and the regulated output is the
terminal voltage.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .configio import ConfigError, fields_schema, read_config

OMEGA_60HZ = 2.0 * math.pi * 60.0
MICRO_STEPS = 4  # RK4 micro-steps per control period
V_NOMINAL = 1.1392  # the reference machine's nominal terminal voltage, pu


class SingularInductanceError(ValueError):
    """Winding inductance matrix is numerically singular."""


class EquilibriumError(RuntimeError):
    """Equilibrium search did not converge."""


class DivergenceError(RuntimeError):
    """Integration produced a non-finite state."""


class SynchronismLost(DivergenceError):
    """The rotor slipped a pole: |delta| reached pi against the infinite bus."""


@dataclass(frozen=True)
class MachineParams:
    """Per-unit machine, network and operating constants.

    Defaults are the shipped reference configuration: a 60 Hz steam-turbine
    generator on a stiff bus, chosen so that operating points from 1.0 to
    2.1 pu terminal voltage exist on the stable branch, the open loop is
    lightly damped (rotor mode near 1.15 Hz), and the small-signal model is
    minimum phase over that range.
    """

    omega_b: float = OMEGA_60HZ      # base electrical speed, rad/s
    H: float = 9.5                   # inertia constant, s
    D: float = 0.02                  # damping, pu torque per rad/s
    r_s: float = 0.003               # stator resistance, pu
    r_f: float = 1.0e-3              # field resistance, pu
    r_kd: float = 0.02               # d-damper resistance, pu
    r_kq: float = 0.01               # q-damper resistance, pu
    L_d: float = 0.9                 # d-axis self inductance, pu
    L_q: float = 0.85                # q-axis self inductance, pu
    L_ad: float = 0.75               # d-axis mutual inductance, pu
    L_aq: float = 0.70               # q-axis mutual inductance, pu
    L_f: float = 0.93                # field self inductance, pu
    L_fkd: float = 0.75              # field / d-damper mutual, pu
    L_kd: float = 0.95               # d-damper self inductance, pu
    L_kq: float = 1.0                # q-damper self inductance, pu
    r11: float = 0.01                # transmission resistance component, pu
    x11: float = 0.15                # transmission reactance component, pu
    A: float = 1.0                   # bus interface constant
    B: float = 0.0                   # bus interface constant
    v_inf: float = 1.0               # infinite-bus voltage, pu
    P_m: float = 1.6512              # mechanical power input, pu

    def __post_init__(self):
        if not 0.0 < self.H < math.inf:
            raise ValueError(f"H must be positive and finite, got {self.H}")
        if not self.omega_b > 0.0:
            raise ValueError(f"omega_b must be positive, got {self.omega_b}")
        # the compiled plant, which the stepping and equilibrium functions read with no lookup
        object.__setattr__(self, "_plant", _assembled(self))  # SingularInductanceError on a bad L


def inductance_matrix(params: MachineParams) -> np.ndarray:
    """Assemble the 5x5 winding inductance matrix L with L i = lambda."""
    p = params
    return np.array(
        [
            [-p.L_d, 0.0, p.L_ad, p.L_ad, 0.0],
            [0.0, -p.L_q, 0.0, 0.0, p.L_aq],
            [-p.L_ad, 0.0, p.L_f, p.L_fkd, 0.0],
            [-p.L_ad, 0.0, p.L_fkd, p.L_kd, 0.0],
            [0.0, -p.L_aq, 0.0, 0.0, p.L_kq],
        ]
    )


class _Plant(NamedTuple):
    """One `MachineParams` compiled into the float kernels of `_kernels`."""

    currents: Callable               # lam -> i solving L i = lam
    voltages: Callable               # x -> (currents, v_d, v_q), `currents` and `bus` inlined
    rates: Callable                  # (x, u) -> dx/dt, the same inlined; for `derivatives`
    step: Callable                   # (x, u, dt) -> x one RK4 step later, `rates` inlined
    steady: Callable | None          # (delta, v_target, branch) -> (P_e, x, u) | None


@lru_cache(maxsize=128)
def _assembled(params: MachineParams) -> _Plant:
    """Cached compilation of params, from L^-1 and the first three columns of
    K^-1.  K = (R + M) L^-1 + Z is the steady-flux matrix: at rest the fluxes
    solve K lam = -(w(delta) + e3 u).  A singular or non-finite K leaves the
    dynamics intact and the plant without a `steady` kernel."""
    L = inductance_matrix(params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = float(np.linalg.det(L))
        if not np.isfinite(det) or abs(det) <= 1e-12:
            raise SingularInductanceError(f"|det L| = {abs(det):.3e} <= 1e-12")
        L_inv = np.linalg.inv(L)
        r_diag = np.array([params.r_s, params.r_s, -params.r_f, -params.r_kd, -params.r_kq])
        RM = np.diag(r_diag)
        RM[0, 0:2] += [params.r11, -params.x11]
        RM[1, 0:2] += [params.x11, params.r11]
        K = RM @ L_inv
        K[0, 1] += 1.0
        K[1, 0] -= 1.0
        try:
            K_inv = np.linalg.inv(K)[:, :3]
        except np.linalg.LinAlgError:  # exactly singular, as with r_f = 0
            K_inv = np.full((5, 3), np.nan)
    K_inv = K_inv.tolist() if np.all(np.isfinite(K_inv)) else None
    return _Plant(*_kernels(params, L_inv.tolist(), r_diag.tolist(), K_inv))


# The kernels below work on Python floats: NumPy's per-call cost on 5- and
# 7-element arrays is most of an RK4 step.  Every constant is a closure cell,
# and `step` carries four inline copies of `rates`, so an RK4 step is one
# Python call with no attribute lookup and no array operation.  L couples
# the d-axis windings (d, f, kd) and the q-axis windings (q, kq) only among
# themselves, and so does L^-1: its cross-block entries are exactly zero, so
# i = L^-1 lam is 13 products, each current summed over its block's columns
# in ascending order, bitwise equal to (L^-1 * lam).sum(axis=1).  The rates
# and the RK4 step keep the operation order of the array formulas they are
# tested against bitwise; `steady` has its own order and matches a LAPACK
# solve of K lam = -w to rounding.  A float overflow yields inf, never an
# exception (there is no `**`), and the non-finite value fails a named check
# at the next stage.

def _kernels(p: MachineParams, L_inv, r_diag, K_inv):
    """currents(lam), voltages(x), rates(x, u), step(x, u, dt) and steady(delta, v_target,
    branch) of one plant; L_inv is L^-1 and K_inv the first three columns of K^-1 (or
    None) as nested lists."""
    w_b, w_2h = float(p.omega_b), p.omega_b / (2.0 * p.H)
    P_m, D, r11, x11 = float(p.P_m), float(p.D), float(p.r11), float(p.x11)
    v_inf, A, B = p.v_inf, p.A, p.B
    r0, r1, r2, r3, r4 = r_diag
    ((m00, _, m02, m03, _), (_, m11, _, _, m14), (m20, _, m22, m23, _),
     (m30, _, m32, m33, _), (_, m41, _, _, m44)) = L_inv
    sin, cos, sqrt, isfinite = math.sin, math.cos, math.sqrt, math.isfinite

    def bus(delta):
        """dq components of the infinite-bus voltage seen at power angle delta."""
        sin_d, cos_d = sin(delta), cos(delta)
        return v_inf * (A * sin_d + B * cos_d), -v_inf * (B * sin_d - A * cos_d)

    def currents(lam):
        """Winding currents solving L i = lam, as 5 floats."""
        if not all(map(isfinite, lam)):
            raise DivergenceError("winding fluxes are not finite")
        l0, l1, l2, l3, l4 = lam
        return (m00 * l0 + m02 * l2 + m03 * l3,
                m11 * l1 + m14 * l4,
                m20 * l0 + m22 * l2 + m23 * l3,
                m30 * l0 + m32 * l2 + m33 * l3,
                m41 * l1 + m44 * l4)

    def voltages(x):
        """Currents (5 floats) and stator voltages v_d, v_q.

        The transmission drop is the skew pairing (-x11 Iq in v_d, +x11 Id in
        v_q); a symmetric pairing would invert the sense of voltage regulation
        and destabilize any positive-gain exciter.  The arithmetic and checks of
        `currents` and `bus` are inlined in their order, with no slice of x.
        """
        delta, _, l0, l1, l2, l3, l4 = x
        # before sin, which raises ValueError on an infinite angle
        if not isfinite(delta):
            raise DivergenceError("power angle is not finite")
        if not (isfinite(l0) and isfinite(l1) and isfinite(l2) and isfinite(l3) and isfinite(l4)):
            raise DivergenceError("winding fluxes are not finite")
        i0, i1 = m00 * l0 + m02 * l2 + m03 * l3, m11 * l1 + m14 * l4
        sin_d, cos_d = sin(delta), cos(delta)
        w_d, w_q = v_inf * (A * sin_d + B * cos_d), -v_inf * (B * sin_d - A * cos_d)
        return ((i0, i1, m20 * l0 + m22 * l2 + m23 * l3, m30 * l0 + m32 * l2 + m33 * l3,
                 m41 * l1 + m44 * l4), r11 * i0 - x11 * i1 + w_d, r11 * i1 + x11 * i0 + w_q)

    def rates(x, u):
        """State rate dx/dt as 7 floats.  The arithmetic and checks of `voltages`,
        `currents` and `bus` are inlined in their order; `step` inlines this in turn."""
        delta, omega, lam_d, lam_q, l2, l3, l4 = x
        if not isfinite(delta):
            raise DivergenceError("power angle is not finite")
        if not (isfinite(lam_d) and isfinite(lam_q) and isfinite(l2) and isfinite(l3)
                and isfinite(l4)):
            raise DivergenceError("winding fluxes are not finite")
        i0, i1 = m00 * lam_d + m02 * l2 + m03 * l3, m11 * lam_q + m14 * l4
        i2, i3 = m20 * lam_d + m22 * l2 + m23 * l3, m30 * lam_d + m32 * l2 + m33 * l3
        i4 = m41 * lam_q + m44 * l4
        sin_d, cos_d = sin(delta), cos(delta)
        v_d = r11 * i0 - x11 * i1 + v_inf * (A * sin_d + B * cos_d)
        v_q = r11 * i1 + x11 * i0 - v_inf * (B * sin_d - A * cos_d)
        P_e = lam_d * i1 - lam_q * i0
        return (omega,
                w_2h * (P_m - P_e - D * omega),
                (r0 * i0 + (lam_q + v_d)) * w_b,
                (r1 * i1 + (-lam_d + v_q)) * w_b,
                (r2 * i2 + u) * w_b,
                r3 * i3 * w_b,
                r4 * i4 * w_b)

    def step(x, u, dt):
        """One classical Runge-Kutta step holding u constant.  Each stage is `rates`
        written out in line, in its operation order and with its checks in its order,
        so a step is one call and builds no stage tuple.  A stage's angle rate is its
        own omega: x1 for the first stage, b0, c0 and d0 for the others."""
        x0, x1, x2, x3, x4, x5, x6 = x
        h = 0.5 * dt
        # stage 1 at x
        if not isfinite(x0):
            raise DivergenceError("power angle is not finite")
        if not (isfinite(x2) and isfinite(x3) and isfinite(x4) and isfinite(x5) and isfinite(x6)):
            raise DivergenceError("winding fluxes are not finite")
        i0, i1 = m00 * x2 + m02 * x4 + m03 * x5, m11 * x3 + m14 * x6
        i2, i3 = m20 * x2 + m22 * x4 + m23 * x5, m30 * x2 + m32 * x4 + m33 * x5
        i4 = m41 * x3 + m44 * x6
        sin_d, cos_d = sin(x0), cos(x0)
        v_d = r11 * i0 - x11 * i1 + v_inf * (A * sin_d + B * cos_d)
        v_q = r11 * i1 + x11 * i0 - v_inf * (B * sin_d - A * cos_d)
        a1 = w_2h * (P_m - (x2 * i1 - x3 * i0) - D * x1)
        a2, a3 = (r0 * i0 + (x3 + v_d)) * w_b, (r1 * i1 + (-x2 + v_q)) * w_b
        a4, a5, a6 = (r2 * i2 + u) * w_b, r3 * i3 * w_b, r4 * i4 * w_b
        # stage 2 at x + h a
        s0, b0 = x0 + h * x1, x1 + h * a1
        s2, s3, s4 = x2 + h * a2, x3 + h * a3, x4 + h * a4
        s5, s6 = x5 + h * a5, x6 + h * a6
        if not isfinite(s0):
            raise DivergenceError("power angle is not finite")
        if not (isfinite(s2) and isfinite(s3) and isfinite(s4) and isfinite(s5) and isfinite(s6)):
            raise DivergenceError("winding fluxes are not finite")
        i0, i1 = m00 * s2 + m02 * s4 + m03 * s5, m11 * s3 + m14 * s6
        i2, i3 = m20 * s2 + m22 * s4 + m23 * s5, m30 * s2 + m32 * s4 + m33 * s5
        i4 = m41 * s3 + m44 * s6
        sin_d, cos_d = sin(s0), cos(s0)
        v_d = r11 * i0 - x11 * i1 + v_inf * (A * sin_d + B * cos_d)
        v_q = r11 * i1 + x11 * i0 - v_inf * (B * sin_d - A * cos_d)
        b1 = w_2h * (P_m - (s2 * i1 - s3 * i0) - D * b0)
        b2, b3 = (r0 * i0 + (s3 + v_d)) * w_b, (r1 * i1 + (-s2 + v_q)) * w_b
        b4, b5, b6 = (r2 * i2 + u) * w_b, r3 * i3 * w_b, r4 * i4 * w_b
        # stage 3 at x + h b
        s0, c0 = x0 + h * b0, x1 + h * b1
        s2, s3, s4 = x2 + h * b2, x3 + h * b3, x4 + h * b4
        s5, s6 = x5 + h * b5, x6 + h * b6
        if not isfinite(s0):
            raise DivergenceError("power angle is not finite")
        if not (isfinite(s2) and isfinite(s3) and isfinite(s4) and isfinite(s5) and isfinite(s6)):
            raise DivergenceError("winding fluxes are not finite")
        i0, i1 = m00 * s2 + m02 * s4 + m03 * s5, m11 * s3 + m14 * s6
        i2, i3 = m20 * s2 + m22 * s4 + m23 * s5, m30 * s2 + m32 * s4 + m33 * s5
        i4 = m41 * s3 + m44 * s6
        sin_d, cos_d = sin(s0), cos(s0)
        v_d = r11 * i0 - x11 * i1 + v_inf * (A * sin_d + B * cos_d)
        v_q = r11 * i1 + x11 * i0 - v_inf * (B * sin_d - A * cos_d)
        c1 = w_2h * (P_m - (s2 * i1 - s3 * i0) - D * c0)
        c2, c3 = (r0 * i0 + (s3 + v_d)) * w_b, (r1 * i1 + (-s2 + v_q)) * w_b
        c4, c5, c6 = (r2 * i2 + u) * w_b, r3 * i3 * w_b, r4 * i4 * w_b
        # stage 4 at x + dt c
        s0, d0 = x0 + dt * c0, x1 + dt * c1
        s2, s3, s4 = x2 + dt * c2, x3 + dt * c3, x4 + dt * c4
        s5, s6 = x5 + dt * c5, x6 + dt * c6
        if not isfinite(s0):
            raise DivergenceError("power angle is not finite")
        if not (isfinite(s2) and isfinite(s3) and isfinite(s4) and isfinite(s5) and isfinite(s6)):
            raise DivergenceError("winding fluxes are not finite")
        i0, i1 = m00 * s2 + m02 * s4 + m03 * s5, m11 * s3 + m14 * s6
        i2, i3 = m20 * s2 + m22 * s4 + m23 * s5, m30 * s2 + m32 * s4 + m33 * s5
        i4 = m41 * s3 + m44 * s6
        sin_d, cos_d = sin(s0), cos(s0)
        v_d = r11 * i0 - x11 * i1 + v_inf * (A * sin_d + B * cos_d)
        v_q = r11 * i1 + x11 * i0 - v_inf * (B * sin_d - A * cos_d)
        d1 = w_2h * (P_m - (s2 * i1 - s3 * i0) - D * d0)
        d2, d3 = (r0 * i0 + (s3 + v_d)) * w_b, (r1 * i1 + (-s2 + v_q)) * w_b
        d4, d5, d6 = (r2 * i2 + u) * w_b, r3 * i3 * w_b, r4 * i4 * w_b
        w = dt / 6.0
        x0, x1 = x0 + w * (x1 + 2.0 * b0 + 2.0 * c0 + d0), x1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        x2, x3 = x2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2), x3 + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        x4, x5 = x4 + w * (a4 + 2.0 * b4 + 2.0 * c4 + d4), x5 + w * (a5 + 2.0 * b5 + 2.0 * c5 + d5)
        x6 = x6 + w * (a6 + 2.0 * b6 + 2.0 * c6 + d6)
        if not (isfinite(x0) and isfinite(x1) and isfinite(x2) and isfinite(x3) and isfinite(x4)
                and isfinite(x5) and isfinite(x6)):
            raise DivergenceError("rk4_step produced a non-finite state")
        return x0, x1, x2, x3, x4, x5, x6

    if K_inv is None:
        return currents, voltages, rates, step, None

    # With delta and u held the steady fluxes are lam0(delta) + u lam_u, so the
    # currents and (v_d, v_q) are affine in u too and v_t^2 = a u^2 + b u + c.
    k_w = [(k_d, k_q) for k_d, k_q, _ in K_inv]
    lam_u = [-k_u for _, _, k_u in K_inv]
    iu0, iu1, _, _, _ = currents(lam_u)
    vu_d, vu_q = r11 * iu0 - x11 * iu1, r11 * iu1 + x11 * iu0
    a = vu_d * vu_d + vu_q * vu_q

    def steady(delta, v_target, branch):
        """Electrical power, state at rest and field voltage of the steady point at
        v_t = v_target: branch=1 takes the rightmost (overexcited) root, branch=0 the
        leftmost.  None when v_target is out of reach at this angle."""
        w_d, w_q = bus(delta)
        lam0 = [-(k_d * w_d + k_q * w_q) for k_d, k_q in k_w]
        i0, i1, _, _, _ = currents(lam0)
        v_d, v_q = r11 * i0 - x11 * i1 + w_d, r11 * i1 + x11 * i0 + w_q
        b = 2.0 * (v_d * vu_d + v_q * vu_q)
        c = v_d * v_d + v_q * v_q - v_target * v_target
        disc = b * b - 4.0 * a * c
        if not (a > 0.0 and disc >= 0.0 and isfinite(disc)):  # also an overflowed a, b or c
            return None
        u = (-b + (sqrt(disc) if branch else -sqrt(disc))) / (2.0 * a)
        lam = [l0 + u * l_u for l0, l_u in zip(lam0, lam_u)]
        i0, i1, _, _, _ = currents(lam)
        return lam[0] * i1 - lam[1] * i0, (delta, 0.0, *lam), u

    return currents, voltages, rates, step, steady


def _floats(x) -> tuple:
    """The state as a tuple of floats; a tuple, the kernels' own output, passes as it is."""
    return x if type(x) is tuple else tuple(map(float, x))


def terminal_voltage(x, params: MachineParams) -> float:
    _, v_d, v_q = params._plant.voltages(_floats(x))
    return math.hypot(v_d, v_q)


def derivatives(x, u: float, params: MachineParams) -> np.ndarray:
    """State rate dx/dt at the given field voltage."""
    return np.array(params._plant.rates(_floats(x), u))


def rk4_step(x, u: float, dt: float, params: MachineParams) -> tuple:
    """One classical Runge-Kutta step holding u constant; the state as 7 floats."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return params._plant.step(_floats(x), float(u), dt)


def advance(x, u: float, dt: float, params: MachineParams) -> tuple:
    """State one control period dt later: MICRO_STEPS RK4 steps holding u constant."""
    h = dt / MICRO_STEPS
    for _ in range(MICRO_STEPS):
        x = rk4_step(x, u, h, params)  # the module attribute, which a tracer may wrap
    return x


def _coarse_equilibrium(params: MachineParams, v_target: float):
    """Operating point (x, u_eq) on a stable (rising power) branch, in closed form.

    Scans the power angle on both excitation branches, and bisects the
    first rising crossing of the electrical power through P_m, preferring
    the overexcited branch.  At each angle the plant's `steady` kernel gives
    the field voltage and the steady fluxes, so the bisected point is the
    equilibrium itself.
    """
    steady = params._plant.steady
    if steady is None:
        raise EquilibriumError("the steady-flux matrix K = (R + M) L^-1 + Z is singular "
                               "or not finite: no operating point")
    P_m = params.P_m
    for branch in (1, 0):
        prev = None
        for delta in np.linspace(0.02, 2.60, 130).tolist():
            point = steady(delta, v_target, branch)
            if point is None:
                prev = None
                continue
            pe = point[0]
            if prev is not None and (prev[1] - P_m) < 0.0 <= (pe - P_m):
                lo, hi = prev[0], delta
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    point = steady(mid, v_target, branch)
                    if point is None or point[0] < P_m:
                        lo = mid
                    else:
                        hi = mid
                point = steady(0.5 * (lo + hi), v_target, branch)
                if point is not None:
                    return np.array(point[1]), point[2]
            prev = (delta, pe)
    raise EquilibriumError(f"no stable-branch equilibrium found for v_t = {v_target}")


EQUILIBRIUM_TOL = 1e-10


def find_equilibrium(params: MachineParams, v_target: float):
    """Operating point at terminal voltage v_target.  Returns (x, u_eq).

    The closed-form point of `_coarse_equilibrium` is checked against the 8
    equations {state rates = 0, v_t = v_target} to EQUILIBRIUM_TOL.
    """
    if not v_target > 0.0:
        raise EquilibriumError(f"terminal voltage target must be positive, got {v_target}")
    x, u_eq = _coarse_equilibrium(params, v_target)
    resid = np.append(derivatives(x, u_eq, params), terminal_voltage(x, params) - v_target)
    res = np.max(np.abs(resid))
    if not res <= EQUILIBRIUM_TOL:
        raise EquilibriumError(f"residual {res:.3e} above tolerance {EQUILIBRIUM_TOL}")
    return x, u_eq


@dataclass
class LinearModel:
    """Small-signal model at an equilibrium plus its transmission zeros."""

    a_mat: np.ndarray   # 7x7
    b_vec: np.ndarray   # 7x1
    c_vec: np.ndarray   # 1x7
    zeros: list

    @property
    def cb(self) -> float:
        """First Markov parameter c.b; nonzero for relative degree one."""
        return float((self.c_vec @ self.b_vec)[0, 0])


def linearize(params: MachineParams, x0, eq_u: float) -> LinearModel:
    """Central finite-difference linearization and transmission zeros."""
    x0 = np.asarray(x0, dtype=float)
    resid = np.max(np.abs(derivatives(x0, eq_u, params)))
    if resid > 1e-8:
        raise ValueError(f"point is not an equilibrium (residual {resid:.3e})")

    a_mat = np.empty((7, 7))
    c_vec = np.empty((1, 7))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite pencil fails below
        for j in range(7):
            step = max(1e-6 * abs(x0[j]), 1e-8)
            xp, xm = x0.copy(), x0.copy()
            xp[j] += step
            xm[j] -= step
            a_mat[:, j] = ((derivatives(xp, eq_u, params) - derivatives(xm, eq_u, params))
                           / (2.0 * step))
            c_vec[0, j] = ((terminal_voltage(xp, params) - terminal_voltage(xm, params))
                           / (2.0 * step))
        step = max(1e-6 * abs(eq_u), 1e-8)
        b_vec = ((derivatives(x0, eq_u + step, params) - derivatives(x0, eq_u - step, params))
                 / (2.0 * step)).reshape(7, 1)

    # the output map has no feedthrough, so the pencil's corner is zero
    pencil_a = np.block([[a_mat, b_vec], [c_vec, np.zeros((1, 1))]])
    if not np.all(np.isfinite(pencil_a)):
        raise DivergenceError("finite-difference small-signal model is not finite")
    pencil_b = np.zeros((8, 8))
    pencil_b[:7, :7] = np.eye(7)
    from scipy.linalg import eig

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eigvals = eig(pencil_a, pencil_b, right=False)
    zeros = [complex(z) for z in eigvals if np.isfinite(z)]
    if len(zeros) != 6:
        raise np.linalg.LinAlgError(
            f"transmission-zero pencil is ill-conditioned: {len(zeros)} finite zeros")
    # LAPACK scales the two members of a conjugate pair apart in the last bit of
    # the real part; rebuilding each pair from its upper member gives it one real
    # part, so sorting by (real, imag) lists the pair's lower member first
    upper = [z for z in zeros if z.imag > 0.0]
    zeros = [z for z in zeros if z.imag == 0.0] + upper + [z.conjugate() for z in upper]
    zeros.sort(key=lambda z: (z.real, z.imag))
    return LinearModel(a_mat=a_mat, b_vec=b_vec, c_vec=c_vec, zeros=zeros)


# static high-gain exciter baseline: K_e = 200 times the machine ratio r_f/x_ad
ST1A_GAIN = 200.0 * 3.9056e-4


def st1a_control(v_t: float, v_ref: float) -> float:
    """Proportional exciter output (a perturbation on the equilibrium field voltage)."""
    return ST1A_GAIN * (v_ref - v_t)


def load_machine_config(path) -> MachineParams:
    """Read a machine config file; unknown keys are errors."""
    values = read_config(path, "machine", fields_schema(MachineParams))
    try:
        return MachineParams(**values)
    except ValueError as exc:  # includes SingularInductanceError
        raise ConfigError(f"invalid machine config {path}: {exc}") from exc
