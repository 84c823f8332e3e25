"""Search bounds shared by the decision procedures.

Every criterion that quantifies over an unbounded index truncates its
search at one of these constants and answers Inconclusive beyond it, unless
the family structure makes a finite search provably exhaustive.  Each route
reads its constant as ``bounds.NAME`` when it runs, so a test lowers one by
setting the module attribute.

- ``PERIOD_MAX``: the steps of rho*alpha that ``simplicity``'s units and
  radical conditions try before they give up on a scalar period of v.
- ``M_MAX``: the indices m of the bounded scans, over v^(m) in those same
  conditions and over alpha^m(u) in ``gwa.gwa_simple``'s fallback walk.
- ``N_MAX``: the largest witness height n of the characteristic-p
  splitting condition in ``simplicity.simple``.

>>> (PERIOD_MAX, M_MAX, N_MAX)
(64, 200, 3)
"""

PERIOD_MAX = 64
M_MAX = 200
N_MAX = 3
