"""Named gallery of grid elements used throughout the test battery.

"osc" is the classic obstruction: t * exp(i/t) on [0,1], zero at 0, whose
absolute value is t but whose phase winds up infinitely fast near 0, so no
continuous unimodular function can match it on the full support.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownGalleryName
from .gridalg import GridElement, disk_domain, interval_domain

GALLERY_NAMES = ("osc", "disk-z", "rankdrop", "linear", "const-unitary", "osc-bounded")


def _scalar_interval(n: int, fn) -> GridElement:
    t = np.linspace(0.0, 1.0, n)
    vals = fn(t).astype(np.complex128).reshape(-1, 1, 1)
    return GridElement(domain=interval_domain(n), values=vals)


def gallery(name: str, grid_n: int) -> GridElement:
    """Deterministic construction of a named gallery element.

    For the disk the requested resolution is radial; the angular count is
    2 * grid_n to keep winding well resolved.
    """
    if name == "osc":
        return _scalar_interval(grid_n, lambda t: np.where(
            t > 0, t * np.exp(1j / np.maximum(t, 1e-300)), 0.0))
    if name == "osc-bounded":
        return _scalar_interval(grid_n, lambda t: t * np.exp(1j * t))
    if name == "linear":
        return _scalar_interval(grid_n, lambda t: t + 0j)
    if name == "const-unitary":
        return _scalar_interval(grid_n, lambda t: np.ones_like(t) + 0j)
    if name == "rankdrop":
        t = np.linspace(0.0, 1.0, grid_n)
        vals = np.zeros((grid_n, 2, 2), dtype=np.complex128)
        vals[:, 0, 0] = t
        vals[:, 1, 1] = 1.0
        return GridElement(domain=interval_domain(grid_n), values=vals)
    if name == "disk-z":
        dom = disk_domain(grid_n, 2 * grid_n)
        radii, angles = dom.coordinates()
        z = radii[:, None] * np.exp(1j * angles[None, :])
        return GridElement(domain=dom, values=z.reshape(-1, 1, 1))
    raise UnknownGalleryName(f"unknown gallery element {name!r}; "
                             f"known: {', '.join(GALLERY_NAMES)}")


def random_scalar_field_1d(n: int, rng: np.random.Generator) -> GridElement:
    """Random continuous scalar field: magnitude and phase are trig
    polynomials with four modes."""
    t = np.linspace(0.0, 1.0, n)
    mag = np.full(n, 0.2)
    phase = np.zeros(n)
    for k in range(1, 5):
        mag = mag + rng.uniform(0.0, 0.5) * (1.0 + np.sin(np.pi * k * t + rng.uniform(0, 2 * np.pi))) / 2.0
        phase = phase + rng.uniform(-2.0, 2.0) * np.sin(np.pi * k * t + rng.uniform(0, 2 * np.pi))
    vals = (mag * np.exp(1j * phase)).reshape(-1, 1, 1)
    return GridElement(domain=interval_domain(n), values=vals)


def random_scalar_field_2d(n_radial: int, n_angular: int, rng: np.random.Generator,
                           winding: int = 0) -> GridElement:
    """Random scalar field on the disk with a three-mode trig-polynomial phase.

    With winding = 0 the phase is globally continuous, so every cut-down
    extends; winding = m multiplies by z^m, planting an obstruction that is
    active whenever the support encircles the center.
    """
    dom = disk_domain(n_radial, n_angular)
    radii, angles = dom.coordinates()
    r = radii[:, None]
    x = r * np.cos(angles[None, :])
    y = r * np.sin(angles[None, :])
    mag = np.full_like(x, 0.2)
    phase = np.zeros_like(x)
    # phase amplitudes decay as 1/k^2 to stay below the pi/2 alias guard at
    # the default resolutions
    for k in range(1, 4):
        mag = mag + rng.uniform(0.0, 0.4) * (1.0 + np.sin(
            np.pi * k * x + rng.uniform(0, 2 * np.pi))) / 2.0
        phase = phase + (rng.uniform(-1.0, 1.0) / k**2) * np.sin(
            np.pi * k * x + rng.uniform(0, 2 * np.pi))
        phase = phase + (rng.uniform(-1.0, 1.0) / k**2) * np.sin(
            np.pi * k * y + rng.uniform(0, 2 * np.pi))
    f = mag * np.exp(1j * phase)
    if winding:
        f = f * (x + 1j * y) ** winding
    return GridElement(domain=dom, values=f.reshape(-1, 1, 1))
