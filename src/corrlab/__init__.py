"""corrlab: correlation-box ensembles, signaling verdicts, and causal geometry."""

__version__ = "0.1.0"
