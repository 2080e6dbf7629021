"""The rank-level policies' posture memo against a fresh computation.

:class:`~repro.policies.ranklevel.RankLevelPolicy` computes the dpd once
per posture key (``_dpd``), the few integers of the usage its
``_compute_dpd`` reads.  The fast-versus-reference checks cannot catch a
wrong key, because both paths go through the memo.  So here every
rank-level class answers a used-bytes sweep twice, through the memo and
freshly, and the two must agree bit for bit: on the way up and down
(so a stale entry would be read back), after a retuned monitor period,
after a restore, and, for adaptive demotion, after the idle history
behind its ladder moved.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import DDR4_4GB_X8, MemoryOrganization
from repro.policies import migration, ramzzz
from repro.policies.ranklevel import RankLevelPolicy
from repro.policies.registry import policy_class, policy_names
from repro.units import MIB, PAGE_SIZE

RANK_LEVEL = tuple(name for name in policy_names()
                   if issubclass(policy_class(name), RankLevelPolicy))

ORGANIZATIONS = {
    "2 ranks": MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                                  dimms_per_channel=2, ranks_per_dimm=1),
    "8 ranks": MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                                  dimms_per_channel=2, ranks_per_dimm=2),
}


def build(policy, organization):
    return GreenDIMMSystem(organization=organization,
                           config=GreenDIMMConfig(block_bytes=128 * MIB),
                           kernel_boot_bytes=512 * MIB, seed=7,
                           policy=policy)


def sweep(organization):
    """Used bytes one page either side of every rank, logical-bank and
    hot-rank boundary, up and back down."""
    rank = organization.rank_capacity_bytes
    bounds = {k * rank for k in range(organization.total_ranks + 1)}
    bounds |= {k * organization.logical_bank_capacity_bytes
               for k in range(organization.total_banks + 1)}
    for hot in (ramzzz.HOT_FRACTION, migration.HOT_FRACTION):
        bounds |= {math.floor(k * rank / hot)
                   for k in range(organization.total_ranks + 1)}
    points = sorted({max(0, bound // PAGE_SIZE + step) * PAGE_SIZE
                     for bound in bounds for step in (-1, 0, 1)})
    return points + points[::-1]


def assert_memo_exact(policy, organization):
    for used in sweep(organization):
        assert policy._dpd(used).hex() == policy._compute_dpd(used).hex(), \
            f"{policy.name} at {used} bytes"


def test_every_rank_level_class_keys_its_own_posture():
    assert set(RANK_LEVEL) == {"srf_only", "ramzzz", "pasr",
                               "rank-migration", "adaptive-demotion"}
    for name in RANK_LEVEL:
        assert "_posture_key" in vars(policy_class(name)), name


@pytest.mark.parametrize("org", sorted(ORGANIZATIONS))
@pytest.mark.parametrize("name", RANK_LEVEL)
def test_memo_matches_a_fresh_computation(name, org):
    organization = ORGANIZATIONS[org]
    system = build(name, organization)
    policy = system.policy
    assert_memo_exact(policy, organization)
    # A retuned period must reach the posture (demotion's ladder reads
    # it for ranks without history).
    system.retune(monitor_period_s=0.5)
    assert_memo_exact(policy, organization)
    system.retune(monitor_period_s=45.0)
    assert_memo_exact(policy, organization)


@pytest.mark.parametrize("name", RANK_LEVEL)
def test_memo_after_a_restore(name):
    organization = ORGANIZATIONS["8 ranks"]
    system = build(name, organization)
    drive(system)
    state = system.policy.state_dict()
    fresh = build(name, organization)
    fresh.policy.load_state_dict(state)
    assert_memo_exact(fresh.policy, organization)
    # A policy that already holds a memo adopts the state too.
    used = build(name, organization)
    assert_memo_exact(used.policy, organization)
    used.policy.load_state_dict(state)
    assert_memo_exact(used.policy, organization)
    assert fresh.policy.dpd_fraction() == system.policy.dpd_fraction()


def drive(system, fires=6):
    """Fire the monitor while the usage climbs a rank at a time and
    falls back, so demotion's ranks fall idle and are re-occupied."""
    mm = system.mm
    policy = system.policy
    now = 0.0
    chunk = system.organization.rank_capacity_bytes // PAGE_SIZE
    for owner in [f"app{i}" for i in range(fires)]:
        if mm.free_pages > chunk:
            mm.allocate(owner, chunk)
        policy.monitor_once(now)
        assert_memo_exact(policy, system.organization)
        now += 200.0
    for owner in [f"app{i}" for i in range(fires)]:
        mm.free_all(owner)
        policy.monitor_once(now)
        assert_memo_exact(policy, system.organization)
        now += 200.0


def test_demotion_memo_follows_the_idle_history():
    organization = ORGANIZATIONS["8 ranks"]
    system = build("adaptive-demotion", organization)
    policy = system.policy
    # Fill the memo first.  drive() then moves the resident count up and
    # down; each re-occupation folds a 200 s idle interval into the EWMA,
    # which pushes the rank down the ladder the posture reads.
    assert_memo_exact(policy, organization)
    before = {used: policy._compute_dpd(used)
              for used in sweep(organization)}
    drive(system)
    assert policy._reactivations > 0
    assert any(policy._compute_dpd(used) != dpd
               for used, dpd in before.items())
