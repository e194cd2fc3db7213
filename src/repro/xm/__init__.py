"""Dtype-policy seam for the numeric stack.

:class:`DTypePolicy` / :func:`get_dtype_policy` name the dtype bundles the
numeric engines run at (``float64`` default, ``float32`` compute with
float64 accumulation), selected via ``QUGEO_DTYPE``.  The default
``float64`` policy reproduces the historical hard-coded behaviour
bit-for-bit.
"""

from repro.xm.policy import (
    FLOAT32,
    FLOAT64,
    DTypePolicy,
    available_policies,
    default_policy_name,
    ensure_complex,
    get_dtype_policy,
    set_default_policy,
)

__all__ = [
    "FLOAT32",
    "FLOAT64",
    "DTypePolicy",
    "available_policies",
    "default_policy_name",
    "ensure_complex",
    "get_dtype_policy",
    "set_default_policy",
]
