"""Imported by pytest before any test module.

``curveprob`` pins the BLAS libraries to one thread when it is imported
before numpy; importing it here, ahead of every test module, applies that
pin to the in-process tests, so they compute the bits the CLI computes."""

import curveprob  # noqa: F401
