"""Reference implementations that tests compare the package against.

They share no algorithmic code with ``src/repro``: each is the plain
(often networkx-based) version of a computation the package does on its
own packed representations.
"""
