"""Exception types shared across the package. A fault of a bundle's data is
a :class:`BundleError` that reads ``<file>: <where>: <reason>``, as
:func:`orcas.schema.fail` builds it, whichever step finds it."""


class OrcasError(Exception):
    """Base class for all errors raised by this package."""


class BundleError(OrcasError):
    """An input file failed to parse or validate.

    Messages carry the file name and the offending key/entry so callers
    can fix the dataset without reading a stack trace.
    """
