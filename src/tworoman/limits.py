"""Settings the command line reads before it loads any solver code.

The choice tuples behind the parser's options live here, so that building
the parser imports no solver, family or tiling module; those modules bind
the same tuples under their own names.

The enumeration limit is overridable via the TWO_RD_MAX_ORDER env var.
Listing every minimum labeling is the one search whose output grows with
the graph, so it is the one search with an order limit; every other search
runs at any order.  The limit is configuration, not a complexity claim.  An
override that is not a non-negative integer raises BadLimitError.
"""

import os

from .errors import BadLimitError

TWO_MODES = ("any", "minimize_twos", "maximize_twos")
METHODS = ("bruteforce", "eccd", "auto")
FAMILY_KINDS = ("path", "cycle", "complete", "star", "complete_bipartite", "grid")
LATTICE_KINDS = ("square", "hexagonal", "triangular")

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
