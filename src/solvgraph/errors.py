"""Shared exception types."""

from __future__ import annotations


class LimitExceeded(RuntimeError):
    """An internal size or search cap was hit (CLI exit code 3)."""


class FormatError(ValueError):
    """Malformed graph/arc input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        self.reason = message
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
