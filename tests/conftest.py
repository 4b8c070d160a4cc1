"""Shared fixtures.

Expensive artifacts (pairing groups, master keys, a fully enrolled
deployment) are session-scoped; tests must not mutate them.  Tests that
need mutation (revocation, list updates) build their own deployment via
the ``fresh_deployment`` factory.

Every test also runs under :func:`_no_kernel_error`: a verification
kernel that raises must fail the suite, not hide behind the classifier's
fail-closed verdict.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.core import groupsig
from repro.core.deployment import Deployment
from repro.pairing import PairingGroup


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "forces_kernel_error: the test makes the verification "
        "kernel raise on purpose")


@pytest.fixture(autouse=True)
def _no_kernel_error(request, monkeypatch):
    """Fail any test during which ``batch_core.fallback_total`` moves.

    The counter counts items the classifier failed closed because the
    kernel raised.  In production that verdict keeps a kernel bug from
    accepting anything; in a test the kernel bug is the failure.  Only
    in-process classification is watched (pool workers run in their own
    interpreters).  Tests that make the kernel raise on purpose carry
    ``@pytest.mark.forces_kernel_error``.
    """
    if request.node.get_closest_marker("forces_kernel_error") is not None:
        yield
        return
    errors = []
    counter = obs.counter

    def watched(name, amount=1):
        if name == "batch_core.fallback_total":
            errors.append(amount)
        return counter(name, amount)

    monkeypatch.setattr(obs, "counter", watched)
    yield
    assert not errors, (
        f"{len(errors)} verification(s) failed closed on a kernel error")


@pytest.fixture(scope="session")
def group() -> PairingGroup:
    """The fast TEST-preset pairing group."""
    return PairingGroup("TEST")


@pytest.fixture(scope="session")
def scheme(group):
    """(gpk, master, {name: gsk}) with two user groups of two members."""
    rng = random.Random(20260706)
    gpk, master = groupsig.keygen_master(group, rng)
    grp_a = groupsig.random_group_id(group, rng)
    grp_b = groupsig.random_group_id(group, rng)
    keys = {
        "a1": groupsig.issue_member_key(group, master, grp_a, (1, 1), rng),
        "a2": groupsig.issue_member_key(group, master, grp_a, (1, 2), rng),
        "b1": groupsig.issue_member_key(group, master, grp_b, (2, 1), rng),
        "b2": groupsig.issue_member_key(group, master, grp_b, (2, 2), rng),
    }
    return gpk, master, keys


@pytest.fixture(scope="session")
def gpk(scheme):
    return scheme[0]


@pytest.fixture(scope="session")
def member_keys(scheme):
    return scheme[2]


@pytest.fixture(scope="session")
def deployment() -> Deployment:
    """A read-only fully-enrolled deployment (do not revoke in here)."""
    return Deployment.build(
        preset="TEST", seed=42,
        groups={"Company X": 4, "University Z": 4},
        users=[("alice", ["Company X", "University Z"]),
               ("bob", ["University Z"]),
               ("carol", ["Company X"])],
        routers=["MR-1", "MR-2"])


@pytest.fixture
def fresh_deployment():
    """Factory for deployments tests may freely mutate."""

    def build(**overrides) -> Deployment:
        defaults = dict(
            preset="TEST", seed=7,
            groups={"Company X": 4, "University Z": 4},
            users=[("alice", ["Company X"]), ("bob", ["University Z"])],
            routers=["MR-1"])
        defaults.update(overrides)
        return Deployment.build(**defaults)

    return build


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)
