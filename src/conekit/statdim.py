"""Monte Carlo estimation of conic summary statistics.

Estimates intrinsic volumes (the face-dimension distribution of Gaussian
projections), the statistical dimension delta(C) = E||Proj_C g||^2, raw
projection moments, Gaussian width, tail/half-tail functionals, plus the
concentration bound and the closed-form recipe for the descent cones of the
l1 norm.

All estimators draw through counter-based substreams: sample block j always
uses the same Philox key, so seeded results are bit-identical run to run.
Every mean, standard error and face histogram is reduced by
:func:`mc_estimate` or :func:`face_histogram`, which drop non-converged
samples, report how many remain and raise once more than
``MAX_FAILURE_FRACTION`` of them failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import Cone, L1SubdiffCone, polar
from .numerics import Record, SeededStream, block_ranges
from .solvers import golden_section_min

__all__ = [
    "Estimate",
    "IVProfile",
    "estimate_statdim",
    "estimate_moment",
    "estimate_width",
    "estimate_intrinsic_volumes",
    "mc_estimate",
    "face_histogram",
    "tails",
    "concentration_bound",
    "a_eta",
    "stojnic_recipe_l1",
    "descent_statdim_l1",
]

MAX_FAILURE_FRACTION = 0.01


@dataclass
class Estimate(Record):
    """A Monte Carlo estimate with its standard error."""

    mean: float
    stderr: float
    samples: int
    seed: int


@dataclass
class IVProfile(Record):
    """Empirical intrinsic-volume profile of a cone in R^n.

    v[k] estimates the probability that the projection of a standard
    Gaussian lands in the relative interior of a k-dimensional face.
    """

    v: np.ndarray
    stderr: np.ndarray
    samples: int
    seed: int

    @property
    def n(self) -> int:
        return len(self.v) - 1

    def statdim(self) -> float:
        """Mean of the profile, sum_k k*v_k."""
        return float(np.arange(len(self.v)) @ self.v)


def _check_failures(ok: np.ndarray) -> int:
    """Number of samples not flagged in ``ok``; raises ``RuntimeError``
    when it exceeds ``MAX_FAILURE_FRACTION`` of them."""
    failures = int(ok.size - ok.sum())
    if failures > MAX_FAILURE_FRACTION * ok.size:
        raise RuntimeError(
            f"projection failed to converge on {failures}/{ok.size} samples")
    return failures


def mc_estimate(vals, ok, seed: int) -> Estimate:
    """Mean and standard error std(ddof=1)/sqrt(n_eff) of per-sample values.

    Only the samples flagged in ``ok`` count; more than
    ``MAX_FAILURE_FRACTION`` of them failing raises ``RuntimeError``.  A
    single sample has a nan standard error.
    """
    ok = np.asarray(ok, dtype=bool)
    _check_failures(ok)
    x = np.asarray(vals, dtype=float)[ok]
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else math.nan
    return Estimate(float(x.mean()), se, x.size, seed)


def face_histogram(fd, ok, n: int):
    """Face-dimension frequencies v[0..n] over the samples flagged in ``ok``.

    Returns ``(v, stderr, n_eff, failures)`` with the binomial standard
    error sqrt(v(1-v)/n_eff); the failure limit is that of
    :func:`mc_estimate`.
    """
    ok = np.asarray(ok, dtype=bool)
    failures = _check_failures(ok)
    n_eff = ok.size - failures
    v = np.bincount(np.asarray(fd)[ok], minlength=n + 1) / n_eff
    return v, np.sqrt(v * (1 - v) / n_eff), n_eff, failures


def _projected_blocks(C: Cone, samples: int, stream: SeededStream,
                      faces: bool):
    """``C.project_batch(..., faces)`` of each block of Gaussian samples;
    block b is ``stream.normal_block(b, ...)``.  The face dimensions are
    None when ``faces`` is false."""
    for b, _, count in block_ranges(samples):
        yield C.project_batch(stream.normal_block(b, count, C.n), faces)


def estimate_moment(C: Cone, r: float, samples: int,
                    stream: SeededStream) -> Estimate:
    """Estimate the raw projection moment E||Proj_C g||^r.

    Parameters
    ----------
    C : Cone
        Cone to project onto.
    r : float
        Moment order, r >= 1.
    samples : int
        Number of Gaussian samples, at least 100.
    stream : SeededStream
        Source of randomness; block j of samples always uses substream j.

    Returns
    -------
    Estimate
        Mean and standard error over the converged samples, their count
        and the master seed.
    """
    if r < 1:
        raise ValueError("moment order must be >= 1")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    vals, ok = [], []
    for P, _, conv in _projected_blocks(C, samples, stream, faces=False):
        vals.append(np.linalg.norm(P, axis=1) ** r)
        ok.append(conv)
    return mc_estimate(np.concatenate(vals), np.concatenate(ok),
                       stream.master_seed)


def estimate_statdim(C: Cone, samples: int,
                     stream: SeededStream) -> Estimate:
    """Estimate the statistical dimension delta(C) = E||Proj_C g||^2."""
    return estimate_moment(C, 2, samples, stream)


def estimate_width(C: Cone, samples: int, stream: SeededStream) -> Estimate:
    """Estimate the Gaussian width w(C) = E max_{x in C, |x|<=1} <g, x>,
    which equals the first projection moment E||Proj_C g||."""
    return estimate_moment(C, 1, samples, stream)


def estimate_intrinsic_volumes(C: Cone, samples: int,
                               stream: SeededStream) -> IVProfile:
    """Estimate intrinsic volumes as the face-dimension histogram of
    projected Gaussians.

    Requires a cone representation that classifies faces (all polyhedral
    representations do).
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    fds, ok = [], []
    for _, fd, conv in _projected_blocks(C, samples, stream, faces=True):
        if np.any(fd < 0):
            raise ValueError(
                "cone representation does not classify faces; "
                "use a polyhedral representation")
        fds.append(fd)
        ok.append(conv)
    v, se, n_eff, _ = face_histogram(np.concatenate(fds), np.concatenate(ok),
                                     C.n)
    return IVProfile(v, se, n_eff, stream.master_seed)


def tails(profile: IVProfile):
    """Tail and half-tail functionals of an intrinsic-volume profile.

    Returns (t, h) with t[k] = sum_{i>=k} v_i and
    h[k] = 2*sum_{i even} v_{k+i}; intrinsic volumes are recovered exactly
    as v_i = (h_i - h_{i+2})/2 with h padded by zeros.
    """
    v = np.asarray(profile.v if isinstance(profile, IVProfile) else profile,
                   dtype=float)
    n = len(v) - 1
    t = np.cumsum(v[::-1])[::-1]
    h = np.zeros(n + 1)
    for k in range(n + 1):
        h[k] = 2.0 * v[k::2].sum()
    return t, h


def concentration_bound(delta_c: float, delta_polar: float,
                        lam: float) -> float:
    """Two-sided deviation bound for the conic intrinsic-volume random
    variable: 2*exp(-(lam^2/4) / (min{delta, delta_polar} + lam/3))."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if delta_c < 0 or delta_polar < 0:
        raise ValueError("statistical dimensions must be nonnegative")
    denom = min(delta_c, delta_polar) + lam / 3.0
    if denom == 0.0:
        return 2.0 if lam == 0 else 0.0
    return 2.0 * math.exp(-(lam * lam / 4.0) / denom)


def a_eta(eta: float, flavor: str = "kinematic") -> float:
    """Width of the transition window at failure probability eta.

    kinematic: 2*sqrt(log(2/eta)); edge: 4*sqrt(log(4/eta)).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if flavor == "kinematic":
        return 2.0 * math.sqrt(math.log(2.0 / eta))
    if flavor == "edge":
        return 4.0 * math.sqrt(math.log(4.0 / eta))
    raise ValueError("flavor must be 'kinematic' or 'edge'")


def _std_normal_pdf(t):
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _std_normal_cdf_neg(t: float) -> float:
    """Phi(-t)."""
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def _l1_recipe_objective(tau: float, n: int, s: int) -> float:
    """Expected squared distance of a Gaussian to tau times the l1-norm
    subdifferential at a point with s nonzero entries."""
    c = (1.0 + tau * tau) * _std_normal_cdf_neg(tau) - tau * _std_normal_pdf(tau)
    return s * (1.0 + tau * tau) + (n - s) * 2.0 * c


def _tau_bracket(n: int) -> float:
    return 10.0 + 5.0 * math.sqrt(math.log(max(n, 2)))


def stojnic_recipe_l1(n: int, s: int) -> Estimate:
    """Recipe value inf_tau E dist^2(g, tau * subdiff of the l1 norm) for a
    vector with s nonzero entries in R^n: the Gaussian integral in closed
    form, minimized over tau by golden section."""
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    _, val = golden_section_min(
        lambda t: _l1_recipe_objective(t, n, s), 0.0, _tau_bracket(n),
        tol=1e-10)
    return Estimate(val, 0.0, 0, 0)


def descent_statdim_l1(n: int, support, signs, samples: int,
                       stream: SeededStream, weights=None) -> Estimate:
    """Statistical dimension of the descent cone of the (weighted) l1 norm
    at a point with the given support and sign pattern.

    The descent cone is the polar of the cone over the subdifferential, so
    by Moreau each sample is the squared distance of g to that cone, one
    exact piecewise-quadratic minimization.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    return estimate_statdim(polar(L1SubdiffCone(n, support, signs, weights)),
                            samples, stream)
