"""Search bounds shared by the decision procedures.

Every criterion that quantifies over an unbounded index truncates its
search at one of these constants and answers Inconclusive beyond it, unless
the family structure makes a finite search provably exhaustive.  Each route
reads its constant as ``bounds.NAME`` when it runs, so a test lowers one by
setting the module attribute.

- ``M_MAX``: the last index m of ``simplicity``'s units and radical
  conditions (the period search for v and the scan over v^(m)) and of
  ``gwa.gwa_simple``'s fallback walk over alpha^m(u).
- ``N_MAX``: the largest witness height n of the characteristic-p
  splitting condition in ``simplicity.simple``.

>>> (M_MAX, N_MAX)
(200, 3)
"""

M_MAX = 200
N_MAX = 3
