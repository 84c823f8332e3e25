"""Search bounds shared by the decision procedures.

Every criterion that quantifies over an unbounded index truncates its
search at one of these constants and answers Inconclusive beyond it, unless
the family structure makes a finite search provably exhaustive.  Each route
reads its constant as ``bounds.NAME`` when it runs, so a test lowers one by
setting the module attribute.

- ``M_MAX``: the last index m of ``simplicity``'s units and radical
  conditions (the period search for v and the scan over v^(m)) and of
  ``gwa.gwa_simple``'s fallback walk over alpha^m(u).

The characteristic-p witness needs no bound: its height is 0 or 1.

>>> M_MAX
200
"""

M_MAX = 200
