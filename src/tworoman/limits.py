"""The enumeration limit, overridable via the TWO_RD_MAX_ORDER env var.

Listing every minimum labeling is the one search whose output grows with
the graph, so it is the one search with an order limit; every other search
runs at any order.  The limit is configuration, not a complexity claim.  An
override that is not a non-negative integer raises BadLimitError.
"""

import os

from .errors import BadLimitError

ENV_MAX_ORDER = "TWO_RD_MAX_ORDER"

DEFAULT_ENUMERATION_MAX_ORDER = 16


def enumeration_max_order():
    raw = os.environ.get(ENV_MAX_ORDER)
    if raw is None:
        return DEFAULT_ENUMERATION_MAX_ORDER
    text = raw.strip()
    if not (text.isascii() and text.isdigit()):
        raise BadLimitError(ENV_MAX_ORDER, raw)
    return int(text)
