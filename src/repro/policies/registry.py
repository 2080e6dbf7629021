"""The policy registry: one name space for every power policy.

Each name maps to one class, given as a ``"module:Class"`` path.  The
class is the live in-kernel policy; the rank-level ones (flagged
``analytical``) also carry the closed-form ``estimate`` classmethod that
Figures 3 and 9-11 use, so the figure experiments, ``repro run
--policy``, and ``repro tournament`` all agree on what a policy is
called.  Registration is **lazy**: a path is resolved only when a caller
asks for the class — importing this module (or
:mod:`repro.sim.experiment`) loads no policy module.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple, Type

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.system import GreenDIMMSystem
    from repro.policies.base import PowerPolicy

#: Name of the policy a system runs when nothing else is selected.
DEFAULT_POLICY = "greendimm"


@dataclass(frozen=True)
class PolicySpec:
    """One registered policy and the class that implements it."""

    name: str
    description: str
    #: ``"module:Class"`` of the policy class.
    path: str
    #: The class has a closed-form ``estimate`` classmethod.
    analytical: bool = False


#: Canonical order: the analytical policies in the order the figure
#: suite has always evaluated them (srf_only, ramzzz, pasr), then
#: GreenDIMM, then the kernel-only Lu et al. policies.
_SPECS = (
    PolicySpec("srf_only", "rank-granularity self-refresh timeout",
               "repro.policies.srf:SelfRefreshTimeoutPolicy", True),
    PolicySpec("ramzzz", "RAMZzz hot/cold rank reshaping (SC'12)",
               "repro.policies.ramzzz:RAMZzzKernelPolicy", True),
    PolicySpec("pasr", "partial-array self-refresh bank masking",
               "repro.policies.pasr:PASRKernelPolicy", True),
    PolicySpec("greendimm", "sub-array power-down daemon (the paper)",
               "repro.core.daemon:GreenDIMMDaemon"),
    PolicySpec("rank-migration",
               "hot-page concentration with migration accounting "
               "(Lu et al.)",
               "repro.policies.migration:RankAwareMigrationPolicy"),
    PolicySpec("adaptive-demotion",
               "per-rank demotion depth from observed idle distributions "
               "(Lu et al.)",
               "repro.policies.demotion:AdaptiveDemotionPolicy"),
)
_REGISTRY = {spec.name: spec for spec in _SPECS}


def policy_names() -> Tuple[str, ...]:
    """Every registered policy name, in canonical order."""
    return tuple(_REGISTRY)


def analytical_policy_names() -> Tuple[str, ...]:
    """Policies with a closed-form estimate, in evaluation order."""
    return tuple(spec.name for spec in _SPECS if spec.analytical)


def policy_spec(name: str) -> PolicySpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ConfigurationError(
            f"unknown policy {name!r} (known: {known})") from None


def policy_class(name: str) -> Type["PowerPolicy"]:
    """Import and return the class registered as *name*."""
    module, _sep, attr = policy_spec(name).path.partition(":")
    return getattr(importlib.import_module(module), attr)


def create_policy(name: str, system: "GreenDIMMSystem") -> "PowerPolicy":
    """Instantiate the in-kernel policy *name* for *system*.

    ``greendimm`` is the daemon every system already runs, so it is
    returned rather than built.
    """
    if name == "greendimm":
        return system.daemon
    return policy_class(name)(system)
