"""Exact construction and simplicity certification of ambiskew polynomial
rings and generalized Weyl algebras (Jordan-Wells, *Simple ambiskew
polynomial rings*).

The package imports nothing here; use its modules directly, for example
``ambiskew.dsl.parse_spec`` or ``ambiskew.simplicity.simple``.
"""
