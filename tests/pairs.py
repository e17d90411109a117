"""PairSpec builders for the tests: every chi entry point takes a pair."""

from fchi.families import MixtureSpec, PairSpec


def discrete_pair(p, q):
    return PairSpec(kind="discrete", p=p, q=q)


def family_pair(fam, theta_p, q):
    """An aef pair, or a mixture pair when q is a MixtureSpec."""
    if isinstance(q, MixtureSpec):
        return PairSpec(kind="mixture", fam=fam, theta_p=theta_p, mixture=q)
    return PairSpec(kind="aef", fam=fam, theta_p=theta_p, theta_q=q)
