"""Structure-constant computer algebra for Rota-Baxter paired modules.

Finite-dimensional algebras, coalgebras and their (weak) Hopf refinements
store the nonzero cells of their structure-constant tensors over an exact
field (the rationals or a prime field), and every sum of products of them
is one einsum-style contraction.  On top of that the package verifies and
constructs Rota-Baxter operators and paired module structures, keeps a
catalog of worked examples, and ships a small CLI (``hopfrb``) that replays
the main construction theorems on the catalog.
"""

__version__ = "0.1.0"
