"""Pluggable power-management policies for the epoch kernel.

The :class:`~repro.policies.base.PowerPolicy` protocol names the surface
:class:`~repro.sim.kernel.EpochKernel` drives; the registry maps policy
names to their classes, resolved lazily by ``"module:Class"`` path.  The
rank-level classes (srf_only, ramzzz, pasr) also give the closed-form
``estimate`` the paper's figures use.  See ``docs/ARCHITECTURE.md`` for
the protocol obligations and the timer replay contract.
"""

from repro.policies.base import PeriodicPolicy, PowerPolicy
from repro.policies.context import (
    get_active_policy,
    policy_scope,
    set_active_policy,
)
from repro.policies.registry import (
    DEFAULT_POLICY,
    PolicySpec,
    analytical_policy_names,
    create_policy,
    policy_class,
    policy_names,
    policy_spec,
)
from repro.policies.schema import PolicyRow, render_rows

__all__ = [
    "DEFAULT_POLICY",
    "PeriodicPolicy",
    "PolicyRow",
    "PolicySpec",
    "PowerPolicy",
    "analytical_policy_names",
    "create_policy",
    "get_active_policy",
    "policy_class",
    "policy_names",
    "policy_scope",
    "policy_spec",
    "render_rows",
    "set_active_policy",
]
