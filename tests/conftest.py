"""Fixtures shared by the test modules."""

import pytest

from lftdom import sampling as samp
from lftdom.domains import Verdict
from lftdom.exceptions import InternalCheckError


@pytest.fixture
def scaled_member():
    """draw(rng, dom, scale, margin): a member from proposals scaled by ``scale``.

    It is the one-member rejection loop of random_domain_member over
    random_space_member(rng, dom.space, scale=scale) proposals, so at scale 1
    it draws random_domain_member's member from the same stream.
    """

    def draw(rng, dom, scale, margin):
        for _ in range(samp.DOMAIN_ATTEMPTS):
            z = samp.random_space_member(rng, dom.space, scale=scale)
            verdict, smin = dom.membership_margin(z)
            if verdict is Verdict.MEMBER and smin > margin:
                return z
        raise InternalCheckError(f"could not sample a member of {dom.label or 'the domain'}")

    return draw
