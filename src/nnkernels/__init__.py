"""Infinite-width network kernels, spectra, learning curves, and oracles.

The package is organised around one pipeline:

    data -> kernel (``kernels``) -> spectrum on a measure (``spectral``)
         -> exact GPR (``gpr``) and dataset-averaged theory (``curves``)
         -> finite-width corrections (``feature``) and training dynamics
            (``dynamics``), all checked against Monte-Carlo / Langevin
            oracles (``empirical``).

Everything is plain numpy/scipy; all randomness flows through
``rng.stream(seed, purpose, index)`` so results are reproducible bit for
bit.
"""

from . import curves, dynamics, empirical, feature, gpr, kernels, rng, spectral

__all__ = [
    "curves",
    "dynamics",
    "empirical",
    "feature",
    "gpr",
    "kernels",
    "rng",
    "spectral",
]

__version__ = "0.1.0"
