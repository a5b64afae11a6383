"""The package exports: ``__all__`` lists exactly the public names the
package binds, once each, and every one of them resolves."""

import inspect

import ckblowup


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ckblowup import *", namespace)
    assert set(ckblowup.__all__) <= namespace.keys()


def test_all_has_no_duplicates():
    assert len(ckblowup.__all__) == len(set(ckblowup.__all__))


def test_all_equals_public_bindings():
    bound = {name for name, value in vars(ckblowup).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(ckblowup.__all__) - {"__version__"} == bound
