"""Exception hierarchy shared across the pipeline.

UserError (exit code 1) covers bad invocations, unresolvable inputs, and
missing prerequisites; DataError (exit code 2) covers inputs that exist
but cannot be understood.
"""

from __future__ import annotations


class PipelineError(Exception):
    exit_code = 1


class UserError(PipelineError):
    exit_code = 1


class DataError(PipelineError):
    exit_code = 2


class ConfigError(UserError):
    pass


class MissingPrerequisiteError(UserError):
    pass


class UnsupportedSchemeError(UserError):
    pass


class StorageNotFoundError(UserError):
    pass


class HeaderMismatchError(DataError):
    """A CSV is missing required columns."""

    def __init__(self, path: str, missing: list[str]):
        self.path = path
        self.missing = list(missing)
        super().__init__(f"{path}: missing required columns: {', '.join(self.missing)}")


class KmlParseError(DataError):
    pass
