"""Recoil-free fractions of the three-mode channel by Monte Carlo.

For a nucleus displaced by u the three modes contribute the amplitude
S(u) = sum_n exp(i k_n . u).  The coherent factor is |<S>|^2 over the
displacement distribution, the incoherent one is <|S|^2>.  Both lie in
[0, 9]; S(0) = 3 gives the maximum 9.  Displacements along the channel
axis enter every mode with the same longitudinal wavenumber k cos(theta),
so a purely longitudinal Gaussian spread gives the closed form
9 exp(-(k cos(theta) sigma)^2) coherently and leaves the incoherent
factor at 9 exactly.

The Monte Carlo runs over 32 batches, each drawn from its own spawned
stream, in chunks of ``_CHUNK_ROWS`` displacements.  Only one vector of
a batch's mode sums, 16 bytes per sample over 32, grows with the sample
count; the chunk's temporaries stay near 0.6 MB.  The estimates are the
same bit for bit as from whole-batch arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_seed
from .geometry import TriGammaGeometry

_MODELS = ("longitudinal-gaussian", "isotropic-gaussian", "explicit-samples")
_N_BATCHES = 32
# displacements drawn and phased at a time within a batch: the chunk's
# temporaries, about 150 bytes a row, stay near 0.6 MB at any n_samples
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class DisplacementEnsemble:
    """Distribution of nuclear displacements to average over.

    ``model`` selects the sampler: Gaussian along +z only, isotropic
    Gaussian, or user-provided rows in ``samples`` (meters).  ``sigma``
    is the per-axis standard deviation for the Gaussian models.
    """

    model: str = "longitudinal-gaussian"
    sigma: float = 0.0
    n_samples: int = 100_000
    seed: int = 0
    samples: np.ndarray | None = None

    def __post_init__(self):
        _check_seed(self.seed)
        if self.model not in _MODELS:
            raise DomainError(f"unknown model {self.model!r}, expected one of {_MODELS}")
        if self.model == "explicit-samples":
            if self.samples is None:
                raise DomainError("explicit-samples model needs a samples array")
            arr = np.array(self.samples, dtype=float)  # the ensemble's own copy
            if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
                raise DomainError(f"samples must have shape (N, 3) with N >= 1, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, "samples", arr)
            object.__setattr__(self, "n_samples", arr.shape[0])
        else:
            if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
                raise DomainError(f"sigma must be nonnegative, got {self.sigma!r}")
            n = self.n_samples
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise DomainError(f"n_samples must be an integer >= 1, got {n!r}")


def _batches(ens: DisplacementEnsemble):
    """Yield ``(n_b, chunks)`` per batch, where ``chunks`` iterates over the
    batch's displacements in order, (rows, 3) arrays of at most
    ``_CHUNK_ROWS`` rows.

    The layout is fixed by n_samples alone: the first ``n_samples % 32``
    batches hold one sample more, as ``np.array_split`` lays them out.
    Drawn batches come from their own spawned streams, chunk after chunk,
    which gives the numbers of one draw of the whole batch; explicit
    samples are chunked as views.
    """
    n_batches = min(_N_BATCHES, ens.n_samples)
    q, r = divmod(ens.n_samples, n_batches)
    sizes = [q + 1] * r + [q] * (n_batches - r)
    if ens.model == "explicit-samples":
        start = 0
        for size in sizes:
            yield size, _sample_chunks(ens.samples[start:start + size])
            start += size
        return
    streams = np.random.SeedSequence(ens.seed).spawn(n_batches)
    for size, ss in zip(sizes, streams):
        yield size, _drawn_chunks(ens, np.random.default_rng(ss), size)


def _sample_chunks(batch):
    for i in range(0, len(batch), _CHUNK_ROWS):
        yield batch[i:i + _CHUNK_ROWS]


def _drawn_chunks(ens: DisplacementEnsemble, rng, size: int):
    for i in range(0, size, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, size - i)
        if ens.model == "longitudinal-gaussian":
            u = np.zeros((rows, 3))
            u[:, 2] = rng.normal(0.0, ens.sigma, size=rows) if ens.sigma > 0 else 0.0
        else:
            u = rng.normal(0.0, ens.sigma, size=(rows, 3)) if ens.sigma > 0 else np.zeros((rows, 3))
        yield u


@dataclass(frozen=True)
class FlmResult:
    """Recoil-free factor estimate.

    ``stderr`` is a batch-means standard error: the spread of the factor
    over the run's (at most 32) batches, each finished on its own, divided
    by the square root of their number; None when fewer than two batches
    are available.  With 32 batches, (value - exact) / stderr follows
    Student's t with 31 degrees of freedom, so it leaves 4 stderr about
    once in 2 700 runs, not the normal law's once in 16 000.
    ``interpretation`` records whether the value is the coherent |<S>|^2
    or the incoherent <|S|^2>.
    """

    value: float
    stderr: float | None
    interpretation: str

    def __post_init__(self):
        if self.interpretation not in ("coherent", "incoherent"):
            raise DomainError(f"interpretation must be coherent or incoherent, got {self.interpretation!r}")
        hi = 9.0 + 3.0 * (self.stderr or 0.0) + 1e-12
        if not (np.isfinite(self.value) and -1e-12 <= self.value <= hi):
            raise DomainError(f"value {self.value!r} outside [0, 9] band")
        if self.stderr is not None and not (np.isfinite(self.stderr) and self.stderr >= 0.0):
            raise DomainError(f"stderr must be nonnegative, got {self.stderr!r}")


def _batch_stats(batch_values):
    values = np.asarray(batch_values)
    if len(values) < 2:
        return None
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))


def _flm_mc(geom: TriGammaGeometry, ens: DisplacementEnsemble, per_sample, finish,
            interpretation: str) -> FlmResult:
    """Average ``per_sample(S)`` over the ensemble; ``finish`` maps a mean to the factor.

    Each batch mean is finished on its own for the batch-means error.  The
    mode sums S of a batch are computed chunk by chunk into one complex
    vector, reused from batch to batch, and ``per_sample`` and the batch's
    mean and sum run over that whole vector, so the sums are numpy's
    pairwise ones over n_b values and the result is the same bit for bit
    as from whole-batch arrays.  Memory is that vector, 16 bytes per
    sample over 32, plus one chunk's temporaries.
    """
    k_t = geom.k_vectors.T
    total = 0.0
    n_total = 0
    batch_vals = []
    buf = None
    for size, chunks in _batches(ens):
        if buf is None:
            buf = np.empty(size, dtype=complex)  # the first batch is the largest
        s = buf[:size]
        i = 0
        for u in chunks:
            np.exp(1j * (u @ k_t)).sum(axis=1, out=s[i:i + len(u)])
            i += len(u)
        v = per_sample(s)
        batch_vals.append(finish(v.mean()))
        total += v.sum()
        n_total += len(v)
    return FlmResult(float(finish(total / n_total)), _batch_stats(batch_vals), interpretation)


def flm_coherent_mc(geom: TriGammaGeometry, ens: DisplacementEnsemble) -> FlmResult:
    """Coherent factor |<sum_n exp(i k_n . u)>|^2 by Monte Carlo.

    Deterministic for a fixed ensemble seed: each batch draws from its own
    spawned substream, so the estimate is reproducible bit for bit.
    """
    return _flm_mc(geom, ens, lambda s: s, lambda m: abs(m) ** 2, "coherent")


def flm_incoherent_mc(geom: TriGammaGeometry, ens: DisplacementEnsemble) -> FlmResult:
    """Incoherent factor <|sum_n exp(i k_n . u)|^2> by Monte Carlo."""
    return _flm_mc(geom, ens, lambda s: np.abs(s) ** 2, lambda m: m, "incoherent")


def flm_closed_form(geom: TriGammaGeometry, sigma_longitudinal: float) -> FlmResult:
    """Exact coherent factor for a longitudinal Gaussian spread.

    All three modes share the longitudinal wavenumber k cos(theta), so
    <exp(i k_n . u)> = exp(-(k cos(theta) sigma)^2 / 2) for each mode and
    the coherent factor is 9 exp(-(k cos(theta) sigma)^2).
    """
    if not (np.isfinite(sigma_longitudinal) and sigma_longitudinal >= 0.0):
        raise DomainError(f"sigma must be nonnegative, got {sigma_longitudinal!r}")
    kz = geom.k_mag * np.cos(geom.theta)
    return FlmResult(float(9.0 * np.exp(-((kz * sigma_longitudinal) ** 2))), 0.0, "coherent")
