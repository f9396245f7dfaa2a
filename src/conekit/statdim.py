"""Monte Carlo estimation of conic summary statistics.

Estimates intrinsic volumes (the face-dimension distribution of Gaussian
projections), the statistical dimension delta(C) = E||Proj_C g||^2, raw
projection moments, Gaussian width, tail/half-tail functionals, plus the
concentration bound and the closed-form/Monte-Carlo recipe for the descent
cones of the l1 norm.

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
from .numerics import SeededStream, block_ranges
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
class Estimate:
    """A Monte Carlo estimate with its standard error."""

    mean: float
    stderr: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr,
                "samples": self.samples, "seed": self.seed}


@dataclass
class IVProfile:
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

    def to_dict(self) -> dict:
        return {"v": self.v.tolist(), "stderr": self.stderr.tolist(),
                "samples": self.samples, "seed": self.seed}

    def to_csv(self) -> str:
        lines = ["k,v_k,stderr"]
        for k, (vk, se) in enumerate(zip(self.v, self.stderr)):
            lines.append(f"{k},{vk:.10g},{se:.10g}")
        return "\n".join(lines) + "\n"


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
    ``MAX_FAILURE_FRACTION`` of them failing raises ``RuntimeError``.
    """
    ok = np.asarray(ok, dtype=bool)
    _check_failures(ok)
    x = np.asarray(vals, dtype=float)[ok]
    return Estimate(float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size)),
                    x.size, seed)


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


def _projected_blocks(C: Cone, samples: int, stream: SeededStream):
    """``C.project_batch`` of each block of Gaussian samples; block b is
    ``stream.normal_block(b, ...)``."""
    for b, _, count in block_ranges(samples):
        yield C.project_batch(stream.normal_block(b, count, C.n))


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
    for P, _, conv in _projected_blocks(C, samples, stream):
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
    for _, fd, conv in _projected_blocks(C, samples, stream):
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


def _std_normal_cdf_neg(t):
    """Phi(-t) for scalar or array t."""
    if np.isscalar(t):
        return 0.5 * math.erfc(t / math.sqrt(2.0))
    t = np.asarray(t, dtype=float)
    return 0.5 * np.vectorize(math.erfc)(t / math.sqrt(2.0))


def _l1_recipe_objective(tau: float, n: int, s: int) -> float:
    """Expected squared distance of a Gaussian to tau times the l1-norm
    subdifferential at a point with s nonzero entries."""
    c = (1.0 + tau * tau) * _std_normal_cdf_neg(tau) - tau * _std_normal_pdf(tau)
    return s * (1.0 + tau * tau) + (n - s) * 2.0 * c


def _tau_bracket(n: int) -> float:
    return 10.0 + 5.0 * math.sqrt(math.log(max(n, 2)))


def stojnic_recipe_l1(n: int, s: int, mode: str = "closed_form",
                      samples: int = 20_000,
                      stream: SeededStream | None = None) -> Estimate:
    """Recipe value inf_tau E dist^2(g, tau * subdiff of the l1 norm) for a
    vector with s nonzero entries in R^n.

    closed_form evaluates the Gaussian integral exactly and minimizes by
    golden section; monte_carlo estimates the objective on a tau grid with
    common random numbers, then refines around the best grid point.
    """
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    hi = _tau_bracket(n)
    if mode == "closed_form":
        tau, val = golden_section_min(
            lambda t: _l1_recipe_objective(t, n, s), 0.0, hi, tol=1e-10)
        return Estimate(val, 0.0, 0, 0)
    if mode != "monte_carlo":
        raise ValueError("mode must be 'closed_form' or 'monte_carlo'")
    if stream is None:
        raise ValueError("monte_carlo mode needs a stream")
    if samples < 100:
        raise ValueError("need at least 100 samples")

    def dist2(G, tau):
        on = (G[:, :s] - tau) ** 2  # signs symmetric: take +1 pattern
        off = np.maximum(np.abs(G[:, s:]) - tau, 0.0) ** 2
        return on.sum(axis=1) + off.sum(axis=1)

    vals_at = {}

    def mean_at(tau):
        if tau not in vals_at:
            acc = 0.0
            for b, start, count in block_ranges(samples):
                G = stream.normal_block(b, count, n)
                acc += dist2(G, tau).sum()
            vals_at[tau] = acc / samples
        return vals_at[tau]

    grid = np.linspace(0.0, hi, 41)
    means = np.array([mean_at(float(t)) for t in grid])
    j = int(np.argmin(means))
    lo = grid[max(j - 1, 0)]
    up = grid[min(j + 1, len(grid) - 1)]
    tau_star, _ = golden_section_min(mean_at, float(lo), float(up), tol=1e-6)
    # final pass collects per-sample values for the standard error
    vals = np.concatenate([dist2(stream.normal_block(b, count, n), tau_star)
                           for b, _, count in block_ranges(samples)])
    return mc_estimate(vals, np.ones(samples, dtype=bool), stream.master_seed)


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
