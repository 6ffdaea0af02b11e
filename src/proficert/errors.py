"""Shared exception types."""


class CapExceededError(RuntimeError):
    """A computation grew past its configured cap.

    Raised instead of silently truncating: callers must either raise the cap
    or restructure the computation.  ``name`` says which cap it was.
    """

    def __init__(self, cap, context="", name="enumeration cap"):
        self.cap = cap
        self.context = context
        msg = f"{name} {cap} exceeded"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class WordSyntaxError(ValueError):
    """A word string did not parse under the `a^3 b^-2` syntax."""


class SchemaError(ValueError):
    """A JSON document did not match the expected certificate schema.

    The message names the offending field path.
    """
