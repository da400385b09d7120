"""Defaults and limits that more than one module reads, kept apart from them
so that building the parser imports no solver. They are ints and text, so
the no-op start loads no ``fractions``."""

#: Default cap on C(n, p-1) * p! for exact GOP. It admits every p = 3 size up
#: to n = 18: C(18, 2) * 3! = 918, while C(19, 2) * 3! = 1026.
DEFAULT_WORK_GUARD = 1000
DEFAULT_MEMORY = 1000  # TeraSort's main-memory records per machine
DEFAULT_EPSILON = "1/10"  # the matching boost parameter, for core._as_epsilon
ORACLE_LIMIT = 10  # the largest p that lap_brute and drp_brute enumerate

SWEEP_KINDS = ("drp-ratio", "gop-ratio", "terasort-io", "mst-io", "mm-io")
