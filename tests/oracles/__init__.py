"""Reference implementations that tests compare the package against.

Each is the plain version of a computation the package does on its own
representations, kept out of ``src/`` so no run path reaches it:

* ``fault_edit``: the per-edge fault edit and its counters (plain Python,
  imports nothing from ``repro``);
* ``components``: connected components by scalar mask BFS (numpy only);
* ``radio``: the radio reception rule a collision round applies (plain
  Python);
* ``mis``: the maximal-independent-set check (reads a topology's masks);
* ``nx_patches``: Section 8.1 patching on networkx (shares only the result
  containers);
* ``gf_matrix``: dense GF(q) Gauss-Jordan elimination. It calls
  ``repro.gf.GF``'s scalar and elementwise arithmetic, but none of the
  package's elimination code (``Subspace``, ``GF2Basis``, ``GF2BasisBatch``).
"""
