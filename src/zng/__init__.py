"""Zarankiewicz-type multipartite hypergraphs: construction, certification, counting.

The package builds r-partite r-graphs from random families of bounded-degree
polynomials over small finite fields, certifies by exhaustive enumeration that
no forbidden complete pattern appears, counts ordered complete patterns
exactly, and cross-checks everything against brute-force oracles on
desk-scale instances.

Nothing is re-exported here: import from the modules (zng.construct,
zng.certify, zng.count, zng.oracle, ...), so that a command-line start loads
only the modules its subcommand runs.
"""

__version__ = "0.1.0"
