"""Path voter: context tokens from the element's ancestors.

``Vehicle/Registration/Number`` and ``VEH_REG/REG_NO`` agree not only on the
leaf but on their *containers*.  This voter compares the token sets of each
element's full root-to-element path, giving container context a voice --
which is what separates ``Person/Name`` from ``Operation/Name``.
"""

from __future__ import annotations

from repro.matchers.base import SetOverlapVoter

__all__ = ["PathVoter"]


class PathVoter(SetOverlapVoter):
    """Jaccard over the union of the element's and its ancestors' name terms."""

    name = "path"
    kind = "path"

    def __init__(self, tau: float = 4.0, neutral: float = 0.2, negative_scale: float = 0.3):
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)
