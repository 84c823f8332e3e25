"""One benchmark operation: a DSL document taken from text to JSON.

There is no executor for ``check`` lines in the package yet, so this module
keeps the dispatch table from check kind to public procedure.  Every
operation parses its document afresh: rings cache their conformality, and
reusing them would time a warm cache that no user of the DSL gets.
"""

from __future__ import annotations

import json


class Operation:
    """Runs documents against one loaded copy of the ``ambiskew`` modules."""

    def __init__(self, lib):
        self.lib = lib
        self.dispatch = {
            "simple": self._simple,
            "singular": lambda spec, check, doc: lib.simplicity.singular(
                spec.rings[check.target]).to_json(),
            "conformal": self._conformal,
            "iterated": self._iterated,
            "localized_simple": lambda spec, check, doc:
                lib.localization.localized_simple(
                    spec.rings[check.target]).to_json(),
            "torus": self._torus,
        }

    def run(self, doc) -> tuple[str, object, list]:
        """(JSON text, parsed document, evaluated elements) for ``doc``."""
        dsl = self.lib.dsl
        spec = dsl.parse_spec(doc.text)
        entries = []
        for check in spec.checks:
            entries.append({"check": check.echo(),
                            "verdict": self.dispatch[check.kind](spec, check, doc)})
        values = []
        for target, text in doc.elements:
            algebra = spec.algebra(target)
            elem = dsl.eval_element(dsl.parse_expression(text), algebra)
            values.append(elem)
            entries.append({"element": text, "in": target,
                            "value": algebra.render(elem)})
        return json.dumps(entries), spec, values

    def _simple(self, spec, check, doc) -> dict:
        ring = spec.rings[check.target]
        if isinstance(ring, self.lib.gwa.GwaRing):
            return self.lib.gwa.gwa_simple(ring).to_json()
        return self.lib.simplicity.simple(ring).to_json()

    def _conformal(self, spec, check, doc) -> dict:
        ring = spec.rings[check.target]
        conf = ring.conformality()
        out = {"status": conf.status.value}
        if conf.u is not None:
            out["u"] = ring.base.render(conf.u)
            out["casimir"] = ring.render(conf.casimir)
        if conf.detail:
            out["detail"] = conf.detail
        return out

    def _iterated(self, spec, check, doc) -> dict:
        chain = [spec.rings[check.target]]
        while isinstance(chain[0].base, self.lib.rings.AmbiskewRing):
            chain.insert(0, chain[0].base)
        return self.lib.simplicity.simple_iterated(chain).to_json()

    def _torus(self, spec, check, doc) -> dict:
        loc = self.lib.localization
        rows = self.lib.dsl.parse_scalar_table(dict(doc.tables)[check.target],
                                               spec.context)
        matrix = loc.TorusMatrix(tuple(tuple(row) for row in rows))
        return loc.quantum_torus_simple(matrix).to_json()
