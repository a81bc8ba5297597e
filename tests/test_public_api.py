"""The public export list of ``qmat``: a star import binds every name in
``__all__``, each name resolves, and none is listed twice."""

import qmat


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from qmat import *", namespace)
    assert set(qmat.__all__) <= set(namespace)


def test_every_export_resolves():
    missing = [name for name in qmat.__all__ if not hasattr(qmat, name)]
    assert not missing


def test_no_export_is_listed_twice():
    assert len(set(qmat.__all__)) == len(qmat.__all__)
