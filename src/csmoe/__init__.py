"""Soft mixture-of-experts cross-sensor masked autoencoder, its five-term
training objective, descriptor-driven spatial sampling, and the matching
evaluation and compute-profiling tools, all on a minimal float64 autodiff
core."""

__version__ = "0.1.0"
