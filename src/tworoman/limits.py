"""Exhaustive-search limits, overridable via the TWO_RD_MAX_ORDER env var.

The limits are configuration, not complexity claims: they mark the graph
orders up to which the exhaustive searches are known to finish in sane time
on ordinary hardware.  An override that is not a non-negative integer raises
BadLimitError.
"""

import os

from .errors import BadLimitError

ENV_MAX_ORDER = "TWO_RD_MAX_ORDER"

DEFAULT_BRUTEFORCE_MAX_ORDER = 24
DEFAULT_ENUMERATION_MAX_ORDER = 16
DEFAULT_ECCD_MAX_ORDER = 22


def _env_override():
    raw = os.environ.get(ENV_MAX_ORDER)
    if raw is None:
        return None
    text = raw.strip()
    if not (text.isascii() and text.isdigit()):
        raise BadLimitError(ENV_MAX_ORDER, raw)
    return int(text)


def bruteforce_max_order():
    override = _env_override()
    return DEFAULT_BRUTEFORCE_MAX_ORDER if override is None else override


def enumeration_max_order():
    override = _env_override()
    return DEFAULT_ENUMERATION_MAX_ORDER if override is None else override


def eccd_max_order():
    override = _env_override()
    return DEFAULT_ECCD_MAX_ORDER if override is None else override
