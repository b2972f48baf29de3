"""Exception types shared across the package."""


class OrcasError(Exception):
    """Base class for all errors raised by this package."""


class BundleError(OrcasError):
    """An input file failed to parse or validate.

    Messages carry the file name and the offending key/entry so callers
    can fix the dataset without reading a stack trace.
    """


class MissingCausalityRowError(OrcasError):
    """A causality-matrix row was requested for a class with no data."""

    def __init__(self, defect_class):
        self.defect_class = defect_class
        super().__init__(f"no causality row: {defect_class}")


class StageError(OrcasError):
    """A pipeline stage failed; wraps the underlying module error."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}': {cause}")
