"""Error types shared across the toolkit.

The CLI maps each class to a distinct diagnostic prefix, so keep the split:
FormatError for broken file contents, DimsError for shape/dimension trouble,
and plain ValueError for values out of range.

Each rule is checked once, at the boundary: public entry points check their
arguments, and the value types (DensityVolume, SimPXImage,
BackProjectionMap) check their data when they are constructed. Internal
producers do not re-check what they have just built, and code that receives
a value type trusts its guarantees instead of scanning the data again.
"""


class FormatError(ValueError):
    """A file's header or payload does not match its declared format."""


class DimsError(ValueError):
    """Dimensions are invalid or inconsistent between two objects."""
