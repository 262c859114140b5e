"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies rather than bare ValueError.
"""

from __future__ import annotations


class FireflynetError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(FireflynetError, ValueError):
    """An argument lies outside its documented domain."""


class ShapeMismatchError(FireflynetError, ValueError):
    """Two objects that must agree in shape or size do not."""


class FormatError(FireflynetError, ValueError):
    """A file's header or payload does not match its declared format."""


class PatternAnnihilatedError(FireflynetError, ValueError):
    """Normalization was asked to rescale an all-zero pattern."""


class CompilerError(FireflynetError, RuntimeError):
    """No working C compiler built the C kernel: the host lacks a tool."""


class ConfigError(FireflynetError, ValueError):
    """A run configuration contains an unknown key or a bad value."""


class InvariantError(FireflynetError, RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
