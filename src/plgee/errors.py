"""Exception hierarchy shared by all plgee modules.

Every error carries a short machine-readable ``kind`` string which the CLI
maps onto its JSON error objects.
"""


class PlgeeError(Exception):
    kind = "error"


class InvalidInputError(PlgeeError):
    kind = "invalid-input"


class NotPositiveDefiniteError(PlgeeError):
    """Raised when a matrix required to be SPD fails the eigenvalue floor."""

    kind = "not-positive-definite"

    def __init__(self, message, lambda_min=None):
        super().__init__(message)
        self.lambda_min = lambda_min


class SingularDesignError(PlgeeError):
    kind = "singular-design"


class LineSearchFailure(PlgeeError):
    kind = "line-search-failure"


class LinkOverflowError(PlgeeError):
    """A theta past the link's limit; subject and time are 0-based (None if unknown)."""

    kind = "link-overflow"

    def __init__(self, message, subject=None, time=None):
        super().__init__(message)
        self.subject = subject
        self.time = time


class ShapeError(PlgeeError):
    kind = "shape"


class SchemaError(PlgeeError):
    kind = "schema"


class ConfigError(PlgeeError):
    kind = "config"


class EmptyReportError(PlgeeError):
    kind = "empty-report"
