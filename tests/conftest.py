"""Shared fixtures."""

import functools

import pytest

import anabel.poly_ops as poly_ops


@pytest.fixture
def quotients_checked(monkeypatch, request):
    """`quotient` and `compose_poly` build without validating; they are
    valid by construction (see their docstrings). This fixture checks that
    argument on every call a test makes, directly, through the module's
    own imports or through `anabel.poly_ops` (the coequalizer, the inverse
    check of the isomorphism criterion): each quotient is deep-validated
    and its projection validated, and each composite validated. The
    original functions stay reachable as `__wrapped__`. The list holds
    each checked quotient."""
    built = []
    quotient, compose_poly = poly_ops.quotient, poly_ops.compose_poly

    @functools.wraps(quotient)
    def checked_quotient(C, seed_pairs):
        res = quotient(C, seed_pairs)
        res.complex.validate(deep=True)
        res.projection.validate()
        built.append(res)
        return res

    @functools.wraps(compose_poly)
    def checked_compose(second, first):
        return compose_poly(second, first).validate()

    for name, checked in [("quotient", checked_quotient), ("compose_poly", checked_compose)]:
        monkeypatch.setattr(poly_ops, name, checked)
        if hasattr(request.module, name):
            monkeypatch.setattr(request.module, name, checked)
    return built
