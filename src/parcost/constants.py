"""Settings the command-line parser needs, kept apart from the modules that
use them so that building the parser imports no solver."""

#: Default cap on C(n, p-1) * p! for exact GOP; sized for n <= 14 with p <= 3.
DEFAULT_WORK_GUARD = 1000

SWEEP_KINDS = ("drp-ratio", "gop-ratio", "terasort-io", "mst-io", "mm-io")
